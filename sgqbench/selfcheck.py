#!/usr/bin/env python3
"""Self-check of the sgq serving benchmark: runs every workload twice on
the current build with the same seed and reports each end-to-end metric
whose two results differ by more than the bound BENCHMARK.json gives it.

    python3 sgqbench/selfcheck.py [--seed 1] [--workloads a,b] [--seconds S]

Run from the root of the checkout. Exits 1 if any metric moved by more than
its bound or a run failed, 0 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    problems = 0
    for workload in args.workloads.split(","):
        first = run_once(workload, args.seed, args.seconds)
        second = run_once(workload, args.seed, args.seconds)
        if first is None or second is None:
            print("%s: a run failed or gave a wrong answer" % workload)
            problems += 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            change = abs(b - a) / abs(a) if a else (0.0 if b == a else 1.0)
            verdict = "ok" if change <= metric["bound"] else "DIFFERS"
            if verdict != "ok":
                problems += 1
            print("%-15s %-16s %12.5g %12.5g  %6.1f%% (bound %.1f%%) %s"
                  % (workload, name, a, b, 100 * change,
                     100 * metric["bound"], verdict))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
