// Dynamic-database maintenance bench (the index-free advantage, scaled up
// from examples/dynamic_database.cpp into a machine-readable snapshot).
//
// The paper motivates vcFV with frequently-updated databases: an IFV index
// must be kept consistent across every insertion and deletion, while the
// index-free engine pays nothing. This bench drives the same update/query
// stream through three maintenance strategies and records, per strategy,
// the maintenance cost and the query cost:
//   * grapes_rebuild        rebuild the Grapes index after every batch;
//   * grapes_incremental    NotifyAdded/NotifyRemoved per update;
//   * cfql_no_maintenance   CFQL, no index, nothing to maintain.
// Every query is cross-checked across the three strategies; any
// disagreement is a correctness bug and fails the run.
//
// Scale knobs (environment):
//   SGQ_DYN_GRAPHS    initial database size     (default 150)
//   SGQ_DYN_BATCHES   update batches            (default 4)
//   SGQ_DYN_UPDATES   updates per batch         (default 20)
//   SGQ_DYN_QUERIES   queries per batch         (default 10)
//
// Output: console table plus a BENCH_*.json snapshot when SGQ_BENCH_JSON
// or SGQ_BENCH_JSON_DIR is set (suite "dynamic"); scripts/run_dynamic_bench.sh
// is the documented invocation and merges the served-mutations record from
// a live server on top.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "index/grapes_index.h"
#include "query/engine_factory.h"
#include "query/filter_verify_engine.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

uint32_t EnvOr(const char* name, uint32_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const unsigned long parsed = std::strtoul(value, nullptr, 10);
  return parsed == 0 ? fallback : static_cast<uint32_t>(parsed);
}

}  // namespace

int main() {
  using namespace sgq;

  const uint32_t num_graphs = EnvOr("SGQ_DYN_GRAPHS", 150);
  const uint32_t batches = EnvOr("SGQ_DYN_BATCHES", 4);
  const uint32_t updates_per_batch = EnvOr("SGQ_DYN_UPDATES", 20);
  const uint32_t queries_per_batch = EnvOr("SGQ_DYN_QUERIES", 10);

  SyntheticParams params;
  params.num_graphs = num_graphs;
  params.vertices_per_graph = 40;
  params.degree = 3.0;
  params.num_labels = 8;
  params.seed = 5;
  GraphDatabase db = GenerateSyntheticDatabase(params);
  Rng rng(99);

  auto grapes_rebuild = MakeEngine("Grapes");
  FilterVerifyEngine grapes_incremental(
      "Grapes", std::make_unique<GrapesIndex>(), /*matcher=*/nullptr);
  auto cfql = MakeEngine("CFQL");
  grapes_incremental.Prepare(db, Deadline::Infinite());
  cfql->Prepare(db, Deadline::Infinite());

  double rebuild_ms = 0, incremental_ms = 0;
  double q_rebuild_ms = 0, q_incremental_ms = 0, q_cfql_ms = 0;
  uint64_t updates = 0, queries = 0;

  for (uint32_t batch = 0; batch < batches; ++batch) {
    // A batch of updates: random deletions and insertions, mirrored into
    // the incremental index as they happen. The rebuild and CFQL engines
    // see the database only at batch granularity.
    for (uint32_t i = 0; i < updates_per_batch; ++i) {
      WallTimer maintain_timer;
      if (rng.NextBool(0.5) && db.size() > 1) {
        const GraphId victim =
            static_cast<GraphId>(rng.NextBounded(db.size()));
        db.Remove(victim);
        grapes_incremental.NotifyRemoved(victim);
      } else {
        std::vector<Label> universe = {0, 1, 2, 3, 4, 5, 6, 7};
        const GraphId id =
            db.Add(GenerateRandomGraph(40, 3.0, universe, &rng));
        grapes_incremental.NotifyAdded(id);
      }
      incremental_ms += maintain_timer.ElapsedMillis();
      ++updates;
    }

    WallTimer rebuild_timer;
    grapes_rebuild->Prepare(db, Deadline::AfterSeconds(600));
    rebuild_ms += rebuild_timer.ElapsedMillis();

    for (uint32_t i = 0; i < queries_per_batch; ++i) {
      Graph q;
      if (!GenerateQuery(db, QueryKind::kSparse, 8, &rng, &q)) continue;
      const QueryResult r1 = grapes_rebuild->Query(q);
      const QueryResult r2 =
          grapes_incremental.Query(q, Deadline::Infinite());
      const QueryResult r3 = cfql->Query(q);
      q_rebuild_ms += r1.stats.QueryMs();
      q_incremental_ms += r2.stats.QueryMs();
      q_cfql_ms += r3.stats.QueryMs();
      ++queries;
      if (r1.answers != r3.answers || r2.answers != r3.answers) {
        std::fprintf(stderr,
                     "DISAGREEMENT after updates (batch %u query %u) — "
                     "this is a bug\n",
                     batch, i);
        return 1;
      }
    }
  }

  bench::PrintHeader("dynamic", "Maintenance under a live update stream");
  std::printf("%u batches x (%u updates + %u queries), db %u -> %zu graphs\n",
              batches, updates_per_batch, queries_per_batch, num_graphs,
              db.size());
  std::printf("  %-22s %12s %12s\n", "strategy", "maintain ms", "query ms");
  std::printf("  %-22s %12.1f %12.1f\n", "grapes_rebuild", rebuild_ms,
              q_rebuild_ms);
  std::printf("  %-22s %12.1f %12.1f\n", "grapes_incremental", incremental_ms,
              q_incremental_ms);
  std::printf("  %-22s %12.1f %12.1f\n", "cfql_no_maintenance", 0.0,
              q_cfql_ms);
  std::printf("All strategies agreed on every query (%llu updates, %llu "
              "queries).\n",
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(queries));

  const std::string json_path = bench::BenchJsonPathFromEnv("dynamic");
  if (json_path.empty()) return 0;

  auto record = [&](const std::string& name, double maintain_ms,
                    double query_ms) {
    bench::BenchRecord r;
    r.name = name;
    r.iterations = batches;
    r.ns_per_op = batches == 0
                      ? 0
                      : (maintain_ms + query_ms) * 1e6 / batches;
    r.counters.emplace_back("maintenance_ms", maintain_ms);
    r.counters.emplace_back("query_ms", query_ms);
    r.counters.emplace_back("updates", static_cast<double>(updates));
    r.counters.emplace_back("queries", static_cast<double>(queries));
    r.counters.emplace_back("final_db_graphs",
                            static_cast<double>(db.size()));
    return r;
  };
  const std::vector<bench::BenchRecord> records = {
      record("grapes_rebuild", rebuild_ms, q_rebuild_ms),
      record("grapes_incremental", incremental_ms, q_incremental_ms),
      record("cfql_no_maintenance", 0.0, q_cfql_ms),
  };
  if (!bench::WriteBenchJson(json_path, "dynamic", records)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("bench: wrote %s (%zu records)\n", json_path.c_str(),
              records.size());
  return 0;
}
