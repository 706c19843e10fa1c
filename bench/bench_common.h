// Shared infrastructure for the paper-reproduction benches.
//
// Every table/figure binary draws from two experiment sweeps:
//   * the real-world sweep  (Tables VI and VII, Figures 2-7): all engines
//     over the four dataset stand-ins with the 8 standard query sets;
//   * the synthetic sweep   (Tables VIII and IX, Figures 8-9): parameter
//     sweeps of |Sigma|, d(G), |V(G)| and |D| with the Q_8S battery.
//
// Both sweeps are expensive (they include deliberately-OOT index builds), so
// the results are cached on disk; the first bench binary to run pays the
// cost, the rest reuse it. Scale knobs come from the environment:
//   SGQ_QUERIES_PER_SET   queries per query set        (default 10)
//   SGQ_BUILD_DEADLINE_S  index-build OOT limit, sec   (default 90; the
//                         paper's 24 h, scaled)
//   SGQ_QUERY_DEADLINE_S  per-query limit, sec         (default 1.5; the
//                         paper's 10 min, scaled)
//   SGQ_INDEX_MEM_LIMIT_MB index-build memory budget   (default 8192; the
//                         paper's 64 GB, scaled — exceeding it records OOM)
//   SGQ_CACHE_DIR         cache directory              (default ./.sgq_bench_cache)
//   SGQ_NO_CACHE=1        recompute, ignore cache
#ifndef SGQ_BENCH_BENCH_COMMON_H_
#define SGQ_BENCH_BENCH_COMMON_H_

#include <map>
#include <string>
#include <vector>

#include "graph/graph_database.h"
#include "query/stats.h"

namespace sgq::bench {

struct BenchEnv {
  uint32_t queries_per_set = 10;
  double build_deadline_s = 90;
  double query_deadline_s = 1.5;
  size_t index_memory_limit_mb = 8192;
  std::string cache_dir = ".sgq_bench_cache";
  bool no_cache = false;
};

BenchEnv GetBenchEnv();

// ---- result model ---------------------------------------------------------

struct EngineDatasetResult {
  bool prep_ok = false;       // false => see prep_failure
  std::string prep_failure;   // "OOT" or "OOM" when prep_ok is false
  double prep_seconds = 0;
  size_t index_bytes = 0;     // persistent index (0 for vcFV)
  size_t max_aux_bytes = 0;   // peak per-query auxiliary memory (vcFV metric)
  // Query-set name -> aggregated metrics, in generation order.
  std::vector<std::pair<std::string, QuerySetSummary>> sets;

  const QuerySetSummary* FindSet(const std::string& name) const;
};

struct DatasetResult {
  std::string name;
  DatabaseStats stats;
  size_t db_bytes = 0;
  std::vector<std::pair<std::string, EngineDatasetResult>> engines;

  const EngineDatasetResult* FindEngine(const std::string& name) const;
};

// ---- the two sweeps -------------------------------------------------------

// Real-world sweep: datasets AIDS/PDBS/PCM/PPI (stand-ins), engines =
// the 8 competing algorithms, query sets Q_{4,8,16,32}{S,D}.
const std::vector<DatasetResult>& GetRealWorldResults();

// Synthetic sweep: dataset names are "<param>=<value>" (param in
// {sigma, degree, vertices, graphs}); engines = CT-Index, GGSX, Grapes
// (indexing + memory) and CFQL, vcGrapes (filtering comparisons); query set
// Q_8S.
const std::vector<DatasetResult>& GetSyntheticResults();

// The sweep values, in paper order (scaled).
struct SyntheticSweepPoint {
  std::string name;     // e.g. "sigma=20"
  std::string param;    // sigma | degree | vertices | graphs
  double value = 0;
};
const std::vector<SyntheticSweepPoint>& SyntheticSweep();

// ---- machine-readable microbench snapshots (BENCH_*.json) ------------------
// The micro_* binaries tee their google-benchmark results into a small JSON
// snapshot so perf runs are diffable across commits (ROADMAP cross-cutting
// ask). scripts/run_micro_benches.sh is the documented invocation.

struct BenchRecord {
  std::string name;        // full benchmark name, e.g. "BM_QueryThroughputCfqlParallel/4"
  uint64_t iterations = 0;
  double ns_per_op = 0;    // real time per iteration, nanoseconds
  // User counters in insertion order (ws_hit_rate, allocs_per_query, ...).
  std::vector<std::pair<std::string, double>> counters;
};

// Resolves where suite `suite_name` should write its snapshot:
//   SGQ_BENCH_JSON      exact output path (single-suite runs), else
//   SGQ_BENCH_JSON_DIR  directory, file named BENCH_<suite_name>.json,
// else "" — no JSON requested, console output only.
std::string BenchJsonPathFromEnv(const std::string& suite_name);

// Writes the snapshot: suite name, the machine's hardware concurrency
// (threads_available — thread-scaling numbers are meaningless without it),
// and one object per record. Creates parent directories. False on I/O
// failure.
bool WriteBenchJson(const std::string& path, const std::string& suite_name,
                    const std::vector<BenchRecord>& records);

// Reads a snapshot previously written by WriteBenchJson back into records
// (suite_name may be null). Parses only our own fixed format; false when
// the file is missing or does not look like a snapshot. Lets a tool merge
// new records into an existing file — sgq_client --bench-json uses it so
// the service-flood snapshot keeps the single-server and routed
// configurations side by side.
bool ReadBenchJson(const std::string& path, std::string* suite_name,
                   std::vector<BenchRecord>* records);

// ---- printing helpers ------------------------------------------------------

// Prints a standard header naming the experiment and the paper artifact.
void PrintHeader(const std::string& artifact, const std::string& title);

// Formats a metric cell; OOT/N-A aware. Width 10.
std::string Cell(double value, int precision = 3);
std::string OmittedCell();  // "-" (engine failed or >40% timeouts)

// True if the paper's omission rule applies (engine failed to complete
// more than 40% of the query set).
bool MostlyTimedOut(const QuerySetSummary& s);

}  // namespace sgq::bench

#endif  // SGQ_BENCH_BENCH_COMMON_H_
