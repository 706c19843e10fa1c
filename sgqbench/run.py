#!/usr/bin/env python3
"""The sgq serving benchmark.

    python3 sgqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds sgq_server, sgq_router and
the sgqbench tool (sgqbench/CMakeLists.txt) under .bench_build/, generates
every input from --seed, launches the real serving processes, drives them
from one client process with at most nproc threads and connections, checks
every answer against a key computed beforehand with another engine, and
prints one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same load, reads the program's STATS counters, replays the head of the
request stream in-process with spans around each layer's public calls
(sgqbench trace), and reports the per-layer metrics. Spans are written to
.bench_build/traces/<workload>.spans.jsonl.

Each run: set-up is repeated SETUP_REPEATS times (launch to the first
correct OK reply to a QUERY) and its median reported; then an open-loop
phase (Poisson arrivals at the workload's fixed rate, latency timed from
each request's scheduled send time) for OPEN_SHARE of --seconds, whose
percentiles are the medians over OPEN_WINDOWS equal windows; then a
closed-loop phase for the rest: rounds that each send one fixed sequence of
requests, drawn with the open phase's mix, with nproc outstanding. The open
phase and every round start from a cleared result cache, refilled with the
workload's hot queries.

The end-to-end cost is cpu_ms_per_op: the CPU time the serving processes
spend per correct reply in the median closed round, among the half of the
rounds with the least hypervisor steal. On a shared VM, wall
times of this stack moved with the load of other guests (open-loop p50 on
aids_routed_rw read 0.87 ms on a quiet host and 1.4-2.2 ms on busy ones),
because each request crosses several processes and every wake-up of an
idle virtual CPU waits for the host. The guest kernel leaves the time the
host gave to others out of a process's CPU time, so the cost stays put. The
open-loop percentiles and the closed-loop rate are still measured and are
reported, without a bound, by the traced run.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
NPROC = os.cpu_count() or 1
CONNS = min(4, NPROC)
# With 4+ CPUs a single server and the client get disjoint halves, so the
# client's threads never preempt a server worker and run-to-run placement
# luck does not show in the figures. A router with its shards is three
# processes and needs every CPU (pinning each to its own CPU lowered
# capacity and did not steady it), so sharded deployments are not pinned.
CPUS = sorted(os.sched_getaffinity(0))
PIN = len(CPUS) >= 4
SETUP_REPEATS = 7
OPEN_SHARE = 0.5
# A burst of load from outside the benchmark moves one window's figures,
# not the median over the windows.
OPEN_WINDOWS = 5
QUERY_TIMEOUT_S = 30  # the deadline sgqbench sends on every QUERY
FAILED_MS = QUERY_TIMEOUT_S * 1000.0  # a failed request misses every limit

# Offered open-loop rates sit at 10-25% of each workload's closed-loop
# capacity_qps on a quiet 4-core x86 VM: on a shared host, a slow stretch
# (capacity then fell by up to 60%) must neither tip the 4-connection open
# loop into a backlog that never drains nor turn the percentiles into
# queueing measurements that swing with the load of other tenants.
WORKLOADS = {
    # vcGGSX (IvcFV) behind sgq_router over 2 shards, 4000 AIDS-like
    # graphs; 10% of operations are ADD/REMOVE of benchmark-owned graphs.
    # 30% of the queries are Zipf(1.0) draws from a hot set of 200, cached
    # before timing; the rest, from a pool of 3600, are each sent once.
    # Every query is a fresh isomorphic relabelling. The cache then hits
    # ~30% of queries throughout a run (less where writes invalidate), so
    # p50 and p99 both sit on misses, and a change in the hit ratio moves
    # which miss they sit on. Capacity ~2000 ops/s.
    "aids_routed_rw": {
        "dataset": ["--db", "aids", "--graphs", "4000",
                    "--pool-per-set", "600", "--add-pool", "200"],
        "traffic": ["--mix", "hot", "--write-ratio", "0.1",
                    "--round-len", "1500"],
        "engine": "vcGGSX", "workers": 1, "sched": "fifo", "shards": 2,
        "rate": 200.0,
    },
    # CFQL with SJF over one 131072-vertex power-law graph served from a
    # CSR snapshot with the candidate index; every query is distinct, sent
    # in an order fixed with the dataset, and a closed round is the first
    # 200 of them. Capacity ~140 req/s.
    # 16-edge queries are left out: on this graph their cost is unbounded
    # for CFQL and for the key engine alike (Q16D p90 ~1 s, single Q16
    # queries past 30 s), which no 16-s run can absorb.
    "biggraph_sjf": {
        "dataset": ["--db", "big", "--vertices", "131072", "--degree", "16",
                    "--labels", "32",
                    "--query-sets", "4s,8s,4d,8d", "--key-timeout", "5",
                    "--pool-size", "2400"],
        "traffic": ["--mix", "distinct", "--round-len", "200"],
        "engine": "CFQL", "workers": 2, "sched": "sjf", "shards": 0,
        "rate": 30.0,
    },
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_checked(cmd, cpus=None, **kwargs):
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            preexec_fn=pin, **kwargs)
    if result.returncode != 0:
        raise RuntimeError("command failed (%d): %s"
                           % (result.returncode, " ".join(cmd)))


def clean_env():
    # SGQ_* variables override server settings (cache, scheduler, candidate
    # index); the workloads define those, so none leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("SGQ_")}


def build():
    jobs = str(NPROC)
    sgq_build = os.path.join(BUILD, "sgq")
    if not os.path.exists(os.path.join(sgq_build, "CMakeCache.txt")):
        run_checked(["cmake", "-S", ROOT, "-B", sgq_build,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", sgq_build, "-j", jobs, "--target",
                 "sgq", "sgq_server", "sgq_router"])
    tool_build = os.path.join(BUILD, "sgqbench")
    if not os.path.exists(os.path.join(tool_build, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", tool_build,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DSGQ_BUILD_DIR=" + sgq_build])
    run_checked(["cmake", "--build", tool_build, "-j", jobs])
    return {
        "server": os.path.join(sgq_build, "tools", "sgq_server"),
        "router": os.path.join(sgq_build, "tools", "sgq_router"),
        "tool": os.path.join(tool_build, "sgqbench"),
    }


def quantile(values, q):
    """Linear-interpolated quantile; inf entries (failures) sort last."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    if math.isinf(s[hi]):
        return FAILED_MS if pos > lo or math.isinf(s[lo]) else s[lo]
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def read_graphs(path):
    with open(path) as f:
        text = f.read()
    parts = text.split("t # ")
    return ["t # " + p for p in parts[1:]]


def read_id_lists(path):
    with open(path) as f:
        return [[int(x) for x in line.split()] for line in f]


# ---------------------------------------------------------------- serving

class Deployment:
    """The serving processes of one workload, launched from the run dir."""

    def __init__(self, bins, spec, dataset, run_dir):
        self.bins = bins
        self.spec = spec
        self.dataset = dataset
        self.run_dir = run_dir
        self.procs = []
        if spec["shards"]:
            self.front = "router.sock"
            self.shard_sockets = ["s%d.sock" % i
                                  for i in range(spec["shards"])]
        else:
            self.front = "srv.sock"
            self.shard_sockets = []

    def _server_cmd(self, sock, shard=None):
        cmd = [self.bins["server"]]
        snapshot = os.path.join(self.dataset, "db.csr")
        if os.path.exists(snapshot):
            cmd += ["--snapshot", snapshot]
        else:
            cmd += ["--db", os.path.join(self.dataset, "db.txt")]
        cmd += ["--socket", sock, "--engine", self.spec["engine"],
                "--workers", str(self.spec["workers"]),
                "--sched", self.spec["sched"]]
        if shard is not None:
            cmd += ["--shard-of", "%d/%d" % (shard, self.spec["shards"])]
        return cmd

    def launch(self):
        for name in [self.front] + self.shard_sockets:
            path = os.path.join(self.run_dir, name)
            if os.path.exists(path):
                os.unlink(path)
        cmds = []
        if self.spec["shards"]:
            for i, sock in enumerate(self.shard_sockets):
                cmds.append(self._server_cmd(sock, i))
            cmds.append([self.bins["router"], "--shards",
                         ",".join("unix:" + s for s in self.shard_sockets),
                         "--socket", self.front])
        else:
            cmds.append(self._server_cmd(self.front))
        env = clean_env()
        cpus = self.server_cpus()
        for cmd in cmds:
            self.procs.append(subprocess.Popen(
                cmd, cwd=self.run_dir, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                preexec_fn=lambda: os.sched_setaffinity(0, cpus)))

    def server_cpus(self):
        if PIN and not self.shard_sockets:
            return set(CPUS[:len(CPUS) // 2])
        return set(CPUS)

    def client_cpus(self):
        if PIN and not self.shard_sockets:
            return set(CPUS[len(CPUS) // 2:])
        return set(CPUS)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=20)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []

    def alive(self):
        return all(p.poll() is None for p in self.procs)

    def rss_mb(self):
        total_kb = 0
        for p in self.procs:
            with open("/proc/%d/status" % p.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0


class LineClient:
    def __init__(self, path, timeout=QUERY_TIMEOUT_S + 30):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        # Relative to the checkout root: a socket path is limited to ~100
        # bytes, and checkouts may live deep in the file system.
        self.sock.connect(os.path.relpath(path))
        self.buf = b""

    def send(self, data):
        self.sock.sendall(data)

    def line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("closed")
            self.buf += chunk
        head, self.buf = self.buf.split(b"\n", 1)
        return head.decode()

    def close(self):
        self.sock.close()


def probe_ready(dep, payload, key, base_graphs, deadline_s=30.0):
    """Seconds from now until the first correct OK reply to a QUERY."""
    start = time.perf_counter()
    wire = ("QUERY %d %d IDS\n" % (len(payload), QUERY_TIMEOUT_S)).encode() \
        + payload.encode()
    path = os.path.join(dep.run_dir, dep.front)
    while time.perf_counter() - start < deadline_s:
        if not dep.alive():
            raise RuntimeError("a serving process exited during set-up")
        try:
            client = LineClient(path)
        except OSError:
            time.sleep(0.002)
            continue
        try:
            while True:
                client.send(wire)
                head = client.line()
                if head.startswith("OK "):
                    ids = [int(x) for x in client.line().split()[1:]]
                    if [i for i in ids if i < base_graphs] != key:
                        raise RuntimeError("set-up probe: wrong answer")
                    return time.perf_counter() - start
                if not head.startswith("OVERLOADED"):
                    raise RuntimeError("set-up probe: " + head)
                time.sleep(0.002)
        except (OSError, ConnectionError):
            time.sleep(0.002)
        finally:
            client.close()
    raise RuntimeError("set-up did not finish in %.0f s" % deadline_s)


def stats_delta(after, before):
    """Counters accumulated between two STATS replies (peaks kept)."""
    if isinstance(after, dict):
        return {k: (v if k == "queue_peak" else
                    stats_delta(v, before.get(k) if isinstance(before, dict)
                                else None))
                for k, v in after.items()}
    if isinstance(after, list):
        before = before if isinstance(before, list) else []
        return [stats_delta(a, before[i] if i < len(before) else None)
                for i, a in enumerate(after)]
    if isinstance(after, (int, float)) and not isinstance(after, bool) \
            and isinstance(before, (int, float)):
        return after - before
    return after


def read_stats(dep):
    client = LineClient(os.path.join(dep.run_dir, dep.front))
    try:
        client.send(b"STATS\n")
        head = client.line()
    finally:
        client.close()
    if not head.startswith("OK "):
        raise RuntimeError("STATS: " + head)
    return json.loads(head[3:])


# ---------------------------------------------------------------- metrics

def cpu_times():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def read_records(path):
    records = []
    with open(path) as f:
        for line in f:
            phase, round_, kind, index, sched, send, done, status = \
                line.rstrip("\n").split("\t")
            records.append({"phase": phase, "round": int(round_),
                            "kind": kind, "index": int(index),
                            "sched": int(sched), "send": int(send),
                            "done": int(done), "status": status})
    return records


def latency_ms(rec, origin):
    if rec["status"] != "OK":
        return math.inf
    return (rec["done"] - rec[origin]) / 1e6


def server_stats(stats):
    """Per-server STATS objects (the shards behind a router)."""
    if "shards" in stats:
        return [s for s in stats["shards"] if isinstance(s, dict)]
    return [stats]


def layer_metrics_from_stats(stats):
    servers = server_stats(stats)

    def total(key, section=None):
        return sum((s.get(section, {}) if section else s).get(key, 0)
                   for s in servers)

    router = stats.get("router", {})
    received = router.get("received") or total("received")
    hits, misses = total("hits", "cache"), total("misses", "cache")
    mutations = total("mutations_add", "update") + \
        total("mutations_remove", "update")
    return {
        "query.executions_per_request":
            total("engine_executions") / max(1, received),
        "cache.hit_ratio": hits / max(1, hits + misses),
        "cache.invalidated_per_mutation":
            total("selective_invalidated", "cache") / max(1, mutations),
        "cache.stale_rejects": total("stale_rejects", "cache"),
        "cache.singleflight_shared": total("singleflight_shared", "cache"),
        "service.queue_peak": max(s.get("queue_peak", 0) for s in servers),
        "service.sched_aged": total("aged", "sched"),
        "service.rejected_frac":
            total("rejected_overloaded") / max(1, total("received")),
        "router.shard_failures": router.get("shard_failures", 0),
        "router.retries": router.get("retries", 0),
        "update.incremental_syncs_per_mutation":
            total("engine_incremental_syncs", "update") / max(1, mutations),
        "update.full_rebuilds": total("engine_full_rebuilds", "update"),
        "update.mutations_during_queries":
            total("mutations_during_queries", "update"),
    }


def input_digest(paths):
    """Short digest of every input file (dataset files and the stream)."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += [os.path.join(path, n) for n in sorted(os.listdir(path))]
        else:
            files.append(path)
    h = hashlib.sha256()
    for name in files:
        h.update(os.path.basename(name).encode())
        with open(name, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def make_dataset(bins, workload, dataset_args):
    """The workload's dataset directory, generated once per checkout and
    tool build (keys included), then reused by every run."""
    tool = os.stat(bins["tool"])
    stamp = hashlib.sha256(json.dumps(
        [dataset_args, tool.st_size, tool.st_mtime_ns]).encode()).hexdigest()
    root = os.path.join(BUILD, "datasets")
    path = os.path.join(root, "%s-%s" % (workload, stamp[:16]))
    if os.path.exists(os.path.join(path, "meta.txt")):
        return path
    os.makedirs(root, exist_ok=True)
    for name in os.listdir(root):
        if name.startswith(workload + "-"):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    tmp = path + ".tmp%d" % os.getpid()
    os.makedirs(tmp)
    run_checked([bins["tool"], "gen-dataset", "--dir", tmp,
                 "--key-threads", str(NPROC)] + dataset_args,
                env=clean_env())
    os.rename(tmp, path)
    return path


# ---------------------------------------------------------------- main

def run(args):
    os.chdir(ROOT)
    spec = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    loadavg = os.getloadavg()[0]
    # CPU time the hypervisor gave to other guests during the run: on a
    # shared host the timings slow with it.
    steal_start = cpu_times()
    bins = build()

    open_s = args.seconds * OPEN_SHARE
    closed_s = args.seconds - open_s
    t0 = time.perf_counter()
    dataset = make_dataset(bins, args.workload, spec["dataset"])
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    stream = os.path.join(run_dir, "stream.txt")
    run_checked([bins["tool"], "gen-stream", "--dir", dataset, "--out", stream,
                 "--seed", str(args.seed),
                 "--open-rate", str(spec["rate"]),
                 "--open-seconds", str(open_s)] + spec["traffic"])
    log("inputs ready in %.1f s" % (time.perf_counter() - t0))
    digest = input_digest([dataset, stream])

    pool = read_graphs(os.path.join(dataset, "pool.txt"))
    keys = read_id_lists(os.path.join(dataset, "keys.txt"))
    with open(os.path.join(dataset, "meta.txt")) as f:
        base_graphs = int(f.read().split()[1])

    dep = Deployment(bins, spec, dataset, run_dir)
    setups = []
    records = []
    layer = {}
    try:
        for i in range(SETUP_REPEATS):
            dep.launch()
            setups.append(probe_ready(dep, pool[0], keys[0], base_graphs))
            if i + 1 < SETUP_REPEATS:
                dep.stop()
        # Counters are reported from here on: set-up probing (a router
        # answering OVERLOADED while its shards build) is not the load.
        stats_ready = read_stats(dep)
        rec_path = os.path.join(run_dir, "records.tsv")
        cpu_path = os.path.join(run_dir, "round_cpu.tsv")
        run_checked([bins["tool"], "drive", "--dir", dataset, "--stream",
                     stream, "--socket", dep.front,
                     "--conns", str(CONNS), "--seconds", str(closed_s),
                     "--out", rec_path, "--cpu-out", cpu_path,
                     "--cpu-pids", ",".join(str(p.pid) for p in dep.procs)],
                    cpus=dep.client_cpus(), cwd=run_dir, env=clean_env())
        records = read_records(rec_path)
        round_cpu = {}  # round -> (serving CPU ns, steal share)
        with open(cpu_path) as f:
            for line in f:
                round_, cpu_ns, steal = line.split()
                round_cpu[int(round_)] = (int(cpu_ns), float(steal))
        stats = stats_delta(read_stats(dep), stats_ready)
        if args.trace:
            layer.update(layer_metrics_from_stats(stats))
            trace_dir = os.path.join(BUILD, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_out = os.path.join(run_dir, "trace.json")
            cmd = [bins["tool"], "trace", "--dir", dataset,
                   "--stream", stream, "--engine", spec["engine"],
                   "--workers", str(spec["workers"]),
                   "--sched", spec["sched"],
                   "--seconds", str(max(1.0, args.seconds * 0.25)),
                   "--out", trace_out, "--spans-out",
                   os.path.join(trace_dir, args.workload + ".spans.jsonl")]
            if dep.shard_sockets:
                cmd += ["--shards",
                        ",".join("unix:" + s for s in dep.shard_sockets),
                        "--router", "unix:" + dep.front]
            run_checked(cmd, cwd=run_dir, env=clean_env())
            with open(trace_out) as f:
                traced = json.load(f)
            layer["trace"] = traced
        rss = dep.rss_mb()
    finally:
        dep.stop()
    steal_end = cpu_times()

    # Warm-up requests ("w") are checked but not timed.
    open_recs = [r for r in records if r["phase"] == "o"]
    closed_recs = [r for r in records if r["phase"] == "c"]
    windows = [[] for _ in range(OPEN_WINDOWS)]
    for r in open_recs:
        if r["kind"] == "Q":
            w = int(r["sched"] / 1e9 / open_s * OPEN_WINDOWS)
            windows[min(w, OPEN_WINDOWS - 1)].append(latency_ms(r, "sched"))
    windows = [w for w in windows if w]
    # Each round's correct completions over the time to its last reply.
    rounds = {}
    for r in closed_recs:
        ok, last = rounds.get(r["round"], (0, 1))
        rounds[r["round"]] = (ok + (r["status"] == "OK"), max(last, r["done"]))
    round_qps = [ok / (last / 1e9) for ok, last in rounds.values()]
    round_cpu_ms = [round_cpu[r][0] / 1e6 / max(1, ok)
                    for r, (ok, _) in rounds.items()]
    round_steal = [round_cpu[r][1] for r in rounds]
    # The cost is read in the quieter half of the rounds: while the host
    # steals time from this guest, the time it does give runs slower too
    # (a run with 23% steal read ~40% more CPU per reply), so such rounds
    # measure the neighbours. With no steal, that is simply the first half.
    quiet = sorted(range(len(round_cpu_ms)), key=lambda i: round_steal[i])
    quiet_cpu_ms = [round_cpu_ms[i] for i in quiet[:(len(quiet) + 1) // 2]]
    attempted = len(records)
    failed = sum(1 for r in records if r["status"] != "OK")
    wrong = sum(1 for r in records if r["status"] == "WRONG")

    end_to_end = {
        "setup_s": statistics.median(setups),
        "cpu_ms_per_op": statistics.median(quiet_cpu_ms),
        "ok_frac": (attempted - failed) / max(1, attempted),
        "rss_mb": rss,
    }
    # Wall-clock figures, reported by the traced run without a bound.
    layer.update({
        "query_p50_ms": statistics.median(quantile(w, 0.50) for w in windows),
        "query_p99_ms": statistics.median(quantile(w, 0.99) for w in windows),
        "capacity_qps": statistics.median(round_qps),
    })
    info = {
        "workload": args.workload, "seed": args.seed,
        "traced": bool(args.trace), "nproc": NPROC, "conns": CONNS,
        "loadavg_1m_at_start": loadavg, "input_digest": digest,
        "cpu_steal_frac": (steal_end[0] - steal_start[0])
        / max(1, steal_end[1] - steal_start[1]),
        "offered_rate": spec["rate"], "open_requests": len(open_recs),
        "mutations": sum(1 for r in records if r["kind"] != "Q"),
        "window_p50_ms": [quantile(w, 0.50) for w in windows],
        "window_p99_ms": [quantile(w, 0.99) for w in windows],
        "closed_requests": len(closed_recs), "round_qps": round_qps,
        "round_cpu_ms_per_op": round_cpu_ms, "round_steal": round_steal,
        "setups_s": setups,
        "failures": {s: sum(1 for r in records if r["status"] == s)
                     for s in sorted({r["status"] for r in records})},
    }
    correct = wrong == 0
    if args.trace:
        traced = layer.pop("trace")
        correct = correct and traced.get("trace.wrong", 1) == 0
        metrics = per_layer_metrics(bench, layer, traced, records)
    else:
        metrics = {m["name"]: {"value": float(end_to_end[m["name"]]),
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    shutil.rmtree(run_dir, ignore_errors=True)


def per_layer_metrics(bench, layer, traced, records):
    open_recs = [r for r in records if r["phase"] == "o"]
    lag = [(r["send"] - r["sched"]) / 1e6 for r in open_recs]
    # Mutations (aids_routed_rw) are timed from their send.
    muts = [r for r in records if r["kind"] != "Q"]
    adds = [latency_ms(r, "send") for r in muts if r["kind"] == "A"]
    removes = [latency_ms(r, "send") for r in muts if r["kind"] == "R"]
    # Queue wait: each open-loop query's round trip minus the unloaded time
    # of the same request's path in the replay.
    paths = traced.get("open_path_ms", {})
    waits = []
    for i, r in enumerate(open_recs):
        if r["kind"] == "Q" and r["status"] == "OK" and str(i) in paths:
            waits.append(max(0.0, (r["done"] - r["send"]) / 1e6
                             - paths[str(i)]))
    values = dict(layer)
    values.update({k: v for k, v in traced.items() if k != "open_path_ms"})
    values.update({
        "driver.lag_p99_ms": quantile(lag, 0.99),
        "update.add_ms_p50": quantile(adds, 0.50),
        "update.add_ms_p99": quantile(adds, 0.99),
        "update.remove_ms_p50": quantile(removes, 0.50),
        "update.remove_ms_p99": quantile(removes, 0.99),
        "service.queue_wait_ms_p50": quantile(waits, 0.50),
        "service.queue_wait_ms_p99": quantile(waits, 0.99),
    })
    # A layer the workload does not use reads 0 (no router in the direct
    # workloads, no index for CFQL, no writes outside aids_routed_rw).
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in bench["per_layer"]}


def on_sigterm(signum, frame):
    # Unwind through the finally blocks that stop the serving processes.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        run(args)
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        log("sgqbench: %s" % error)
        sys.exit(1)


if __name__ == "__main__":
    main()
