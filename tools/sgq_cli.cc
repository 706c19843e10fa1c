// sgq command-line tool: generate databases and query sets, inspect
// statistics, and run subgraph queries with any engine.
//
//   sgq_cli generate --out db.txt --graphs 100 --vertices 50 --degree 4
//                    --labels 10 [--labels-per-graph 4] [--seed 1]
//   sgq_cli biggen   --out big.txt --vertices 1048576 --degree 16
//                    --labels 32 [--label-skew 1.0] [--seed 1]
//                    [--format text|snapshot]
//                    (one massive power-law data graph; snapshot format
//                    writes the binary CSR form directly)
//   sgq_cli standin  --out db.txt --profile AIDS --count-scale 0.01
//                    [--size-scale 1.0] [--seed 1]
//   sgq_cli genq     --db db.txt --out queries.txt --edges 8
//                    [--kind sparse|dense] [--count 100] [--seed 1]
//   sgq_cli stats    --db db.txt
//   sgq_cli query    --db db.txt --queries queries.txt [--engine CFQL]
//                    [--time-limit 600] [--build-limit 86400]
//                    [--threads N] [--chunk K]   (CFQL-parallel only)
//                    [--cache-mb 64]   (0 or SGQ_CACHE=off disables the
//                    result cache; repeated/isomorphic queries in the set
//                    are then served from memory)
//                    [--stream 1]   (run each query through the streaming
//                    sink path and report time-to-first-embedding; bypasses
//                    the result cache so the timing reflects the engine)
//                    [--format text|json]   (json: one machine-readable
//                    object per query plus a summary object, sharing the
//                    server's STATS serialization)
//   sgq_cli index    --db db.txt --type Grapes|GGSX|CT-Index --out idx.bin
//                    [--build-limit 86400]
//   sgq_cli filter   --index idx.bin --type Grapes|GGSX|CT-Index
//                    --queries queries.txt
//   sgq_cli crosscheck --db db.txt --queries queries.txt
//                    [--time-limit 600] [--build-limit 86400]
//                    runs every engine and verifies they agree
//
// Databases and query sets both use the classic text format
// ("t # id / v id label / e u v").
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cache/canonical.h"
#include "cache/result_cache.h"
#include "gen/biggraph_gen.h"
#include "gen/dataset_profiles.h"
#include "index/ct_index.h"
#include "index/ggsx_index.h"
#include "index/grapes_index.h"
#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_io.h"
#include "index/vertex_candidate_index.h"
#include "query/engine_factory.h"
#include "query/result_sink.h"
#include "tool_flags.h"
#include "util/defaults.h"
#include "util/timer.h"

namespace {

using namespace sgq;
using sgq_tools::Flags;

std::unique_ptr<GraphIndex> MakeIndexByType(const std::string& type) {
  if (type == "Grapes") return std::make_unique<GrapesIndex>();
  if (type == "GGSX") return std::make_unique<GgsxIndex>();
  if (type == "CT-Index") return std::make_unique<CtIndex>();
  return nullptr;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sgq_cli "
      "<generate|biggen|standin|genq|stats|query|index|filter|crosscheck> "
      "[--flags]\n"
      "run with a command and no flags to see its options in the header\n"
      "of tools/sgq_cli.cc\n");
  return 2;
}

bool LoadDbOrDie(const std::string& path, GraphDatabase* db) {
  std::string error;
  if (path.empty()) {
    std::fprintf(stderr, "--db is required\n");
    return false;
  }
  if (!LoadDatabase(path, db, &error)) {
    std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

int CmdGenerate(const Flags& flags) {
  if (!flags.Validate({"out", "graphs", "vertices", "degree", "labels",
                       "labels-per-graph", "seed", "jitter"})) {
    return 2;
  }
  SyntheticParams params;
  params.num_graphs = static_cast<uint32_t>(flags.GetDouble("graphs", 100));
  params.vertices_per_graph =
      static_cast<uint32_t>(flags.GetDouble("vertices", 50));
  params.degree = flags.GetDouble("degree", 4.0);
  params.num_labels = static_cast<uint32_t>(flags.GetDouble("labels", 10));
  params.labels_per_graph =
      static_cast<uint32_t>(flags.GetDouble("labels-per-graph", 0));
  params.size_jitter = flags.GetDouble("jitter", 0.1);
  params.seed = static_cast<uint64_t>(flags.GetDouble("seed", 1));
  const GraphDatabase db = GenerateSyntheticDatabase(params);

  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  std::string error;
  if (!SaveDatabase(db, out, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %zu graphs to %s\n", db.size(), out.c_str());
  return 0;
}

int CmdBiggen(const Flags& flags) {
  if (!flags.Validate({"out", "vertices", "degree", "labels", "label-skew",
                       "seed", "format"})) {
    return 2;
  }
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  const std::string format = flags.Get("format", "text");
  if (format != "text" && format != "snapshot") {
    std::fprintf(stderr, "--format must be text or snapshot\n");
    return 2;
  }
  PowerLawParams params;
  params.num_vertices =
      static_cast<uint32_t>(flags.GetDouble("vertices", 1 << 20));
  params.avg_degree = flags.GetDouble("degree", 16.0);
  params.num_labels = static_cast<uint32_t>(flags.GetDouble("labels", 32));
  params.label_skew = flags.GetDouble("label-skew", 1.0);
  params.seed = static_cast<uint64_t>(flags.GetDouble("seed", 1));

  GraphDatabase db;
  db.Add(GeneratePowerLawGraph(params));
  const Graph& g = db.graph(0);
  std::string error;
  const bool ok = format == "snapshot" ? WriteSnapshot(db, out, &error)
                                       : SaveDatabase(db, out, &error);
  if (!ok) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote power-law graph (%u vertices, %llu edges, %u labels, "
              "max degree %u) to %s as %s\n",
              g.NumVertices(),
              static_cast<unsigned long long>(g.NumEdges()),
              g.NumDistinctLabels(), g.MaxDegree(), out.c_str(),
              format.c_str());
  return 0;
}

int CmdStandin(const Flags& flags) {
  if (!flags.Validate({"out", "profile", "count-scale", "size-scale",
                       "seed"})) {
    return 2;
  }
  const std::string profile = flags.Get("profile", "AIDS");
  const GraphDatabase db = GenerateStandIn(
      ProfileByName(profile), flags.GetDouble("count-scale", 0.01),
      flags.GetDouble("size-scale", 1.0),
      static_cast<uint64_t>(flags.GetDouble("seed", 1)));
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  std::string error;
  if (!SaveDatabase(db, out, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %zu %s-like graphs to %s\n", db.size(), profile.c_str(),
              out.c_str());
  return 0;
}

int CmdGenq(const Flags& flags) {
  if (!flags.Validate({"db", "out", "edges", "kind", "count", "seed"})) {
    return 2;
  }
  GraphDatabase db;
  if (!LoadDbOrDie(flags.Get("db", ""), &db)) return 1;
  const std::string kind_name = flags.Get("kind", "sparse");
  if (kind_name != "sparse" && kind_name != "dense") {
    std::fprintf(stderr, "--kind must be sparse or dense\n");
    return 2;
  }
  const QueryKind kind =
      kind_name == "sparse" ? QueryKind::kSparse : QueryKind::kDense;
  const QuerySet set = GenerateQuerySet(
      db, kind, static_cast<uint32_t>(flags.GetDouble("edges", 8)),
      static_cast<uint32_t>(flags.GetDouble("count", 100)),
      static_cast<uint64_t>(flags.GetDouble("seed", 1)));

  GraphDatabase as_db;
  for (const Graph& q : set.queries) as_db.Add(q);
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  std::string error;
  if (!SaveDatabase(as_db, out, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const QuerySetStats stats = ComputeQuerySetStats(set);
  std::printf(
      "wrote %zu queries (%s) to %s: avg |V| %.2f, avg degree %.2f, "
      "%.0f%% trees\n",
      set.queries.size(), set.name.c_str(), out.c_str(), stats.avg_vertices,
      stats.avg_degree, stats.tree_fraction * 100);
  return 0;
}

int CmdStats(const Flags& flags) {
  if (!flags.Validate({"db"})) return 2;
  GraphDatabase db;
  if (!LoadDbOrDie(flags.Get("db", ""), &db)) return 1;
  const DatabaseStats s = db.ComputeStats();
  std::printf("graphs:            %zu\n", s.num_graphs);
  std::printf("distinct labels:   %u\n", s.num_distinct_labels);
  std::printf("avg vertices:      %.2f\n", s.avg_vertices_per_graph);
  std::printf("avg edges:         %.2f\n", s.avg_edges_per_graph);
  std::printf("avg degree:        %.2f\n", s.avg_degree_per_graph);
  std::printf("avg labels/graph:  %.2f\n", s.avg_labels_per_graph);
  std::printf("CSR memory:        %.3f MB\n",
              static_cast<double>(db.MemoryBytes()) / (1024.0 * 1024.0));
  return 0;
}

// Timestamps the first answer an engine streams; used by `query --stream`
// to report time-to-first-embedding per query.
class FirstAnswerSink : public ResultSink {
 public:
  bool OnAnswer(GraphId) override {
    if (count_++ == 0) first_ms_ = timer_.ElapsedMillis();
    return true;
  }
  double first_ms() const { return first_ms_; }  // -1: no answer streamed

 private:
  WallTimer timer_;
  uint64_t count_ = 0;
  double first_ms_ = -1;
};

int CmdQuery(const Flags& flags) {
  if (!flags.Validate({"db", "queries", "engine", "time-limit", "build-limit",
                       "threads", "chunk", "format", "cache-mb", "stream",
                       "candidate-index", "candidate-index-min"})) {
    return 2;
  }
  const std::string format = flags.Get("format", "text");
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "--format must be text or json\n");
    return 2;
  }
  const bool json = format == "json";
  GraphDatabase db;
  if (!LoadDbOrDie(flags.Get("db", ""), &db)) return 1;
  GraphDatabase queries;
  std::string error;
  const std::string qpath = flags.Get("queries", "");
  if (qpath.empty() || !LoadDatabase(qpath, &queries, &error)) {
    std::fprintf(stderr, "failed to load queries: %s\n", error.c_str());
    return 1;
  }

  const std::string engine_name = flags.Get("engine", "CFQL");
  EngineConfig config;
  config.parallel_threads =
      static_cast<uint32_t>(flags.GetDouble("threads", 0));
  config.parallel_chunk = static_cast<uint32_t>(flags.GetDouble("chunk", 0));
  config.cache_mb = static_cast<size_t>(
      flags.GetDouble("cache-mb", static_cast<double>(config.cache_mb)));
  config.candidate_index_min_vertices =
      flags.Get("candidate-index", "on") == "off"
          ? UINT32_MAX
          : static_cast<uint32_t>(
                flags.GetDouble("candidate-index-min",
                                config.candidate_index_min_vertices));
  if (!IsKnownEngine(engine_name)) {
    std::string known;
    for (const std::string& name : KnownEngineNames()) known += " " + name;
    std::fprintf(stderr, "unknown engine: %s (known:%s)\n",
                 engine_name.c_str(), known.c_str());
    return 2;
  }
  AttachCandidateIndexes(&db, config.candidate_index_min_vertices);
  auto engine = MakeEngine(engine_name, config);
  WallTimer prep_timer;
  if (!engine->Prepare(db, Deadline::AfterSeconds(flags.GetDouble(
                               "build-limit", kDefaultBuildTimeoutSeconds)))) {
    std::fprintf(stderr, "%s: index construction timed out (OOT)\n",
                 engine_name.c_str());
    return 1;
  }
  if (!json) {
    std::printf("prepared %s in %.1f ms (index %.3f MB)\n",
                engine_name.c_str(), prep_timer.ElapsedMillis(),
                static_cast<double>(engine->IndexMemoryBytes()) /
                    (1024.0 * 1024.0));
  }

  const double limit =
      flags.GetDouble("time-limit", kDefaultQueryTimeoutSeconds);
  const bool stream = flags.GetDouble("stream", 0) != 0;
  // Same cache stack as the server, minus singleflight (execution here is
  // sequential): canonical hash -> lookup -> execute on miss -> insert.
  // --stream bypasses the cache so the reported first-embedding latency
  // measures the engine's streaming path, not a memory lookup.
  CacheConfig cache_config;
  cache_config.enabled = !stream && config.cache_mb > 0;
  cache_config.max_bytes = config.cache_mb << 20;
  ResultCache cache(cache_config);
  std::vector<QueryResult> results;
  std::vector<double> first_ms_all;
  for (GraphId i = 0; i < queries.size(); ++i) {
    CacheKey key;
    key.engine = engine_name;
    bool cache_hit = false;
    QueryResult r;
    if (cache.enabled()) {
      key.hash = CanonicalQueryHash(queries.graph(i));
      cache_hit = cache.Lookup(key, cache.mutation_seq(), &r);
    }
    double first_ms = -1;
    if (!cache_hit) {
      if (stream) {
        FirstAnswerSink sink;
        r = engine->Query(queries.graph(i), Deadline::AfterSeconds(limit),
                          &sink);
        first_ms = sink.first_ms();
        if (first_ms >= 0) first_ms_all.push_back(first_ms);
      } else {
        r = engine->Query(queries.graph(i), Deadline::AfterSeconds(limit));
      }
      if (cache.enabled() && !r.stats.timed_out) {
        // The CLI never mutates its database, so the pin is always current.
        cache.Insert(key, r, cache.mutation_seq(),
                     GraphFeaturesOf(queries.graph(i)));
      }
    }
    if (json) {
      std::string extra;
      if (stream && first_ms >= 0) {
        extra = ",\"first_embedding_ms\":" + std::to_string(first_ms);
      }
      std::printf("{\"query\":%u,\"cache_hit\":%s%s,\"stats\":%s}\n", i,
                  cache_hit ? "true" : "false", extra.c_str(),
                  ToJson(r.stats).c_str());
    } else {
      std::string ttfe;
      if (stream && first_ms >= 0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ", first answer %.3f ms", first_ms);
        ttfe = buf;
      }
      std::printf("query %u: %zu answers, |C|=%llu, filter %.3f ms, "
                  "verify %.3f ms%s%s%s\n",
                  i, r.answers.size(),
                  static_cast<unsigned long long>(r.stats.num_candidates),
                  r.stats.filtering_ms, r.stats.verification_ms,
                  ttfe.c_str(), r.stats.timed_out ? " [TIMEOUT]" : "",
                  cache_hit ? " [cached]" : "");
    }
    results.push_back(std::move(r));
  }
  const QuerySetSummary s = Summarize(results, limit * 1e3);
  if (json) {
    std::printf("{\"engine\":\"%s\",\"summary\":%s,\"cache\":%s}\n",
                engine_name.c_str(), ToJson(s).c_str(),
                cache.Stats().ToJson().c_str());
  } else {
    std::printf(
        "summary: %u queries, %u timeouts, avg query %.3f ms "
        "(filter %.3f + verify %.3f), precision %.3f, avg |C| %.1f\n",
        s.num_queries, s.num_timeouts, s.avg_query_ms, s.avg_filtering_ms,
        s.avg_verification_ms, s.filtering_precision, s.avg_candidates);
    if (stream && !first_ms_all.empty()) {
      double sum = 0;
      for (const double ms : first_ms_all) sum += ms;
      std::printf("first-embedding: avg %.3f ms over %zu queries with "
                  "answers\n",
                  sum / static_cast<double>(first_ms_all.size()),
                  first_ms_all.size());
    }
    const CacheStatsSnapshot cs = cache.Stats();
    if (cs.enabled) {
      std::printf("cache: %llu hits, %llu misses, %llu evictions, "
                  "%llu bytes\n",
                  static_cast<unsigned long long>(cs.hits),
                  static_cast<unsigned long long>(cs.misses),
                  static_cast<unsigned long long>(cs.evictions),
                  static_cast<unsigned long long>(cs.bytes));
    }
  }
  return 0;
}

int CmdIndex(const Flags& flags) {
  if (!flags.Validate({"db", "type", "out", "build-limit"})) return 2;
  GraphDatabase db;
  if (!LoadDbOrDie(flags.Get("db", ""), &db)) return 1;
  auto index = MakeIndexByType(flags.Get("type", "Grapes"));
  if (index == nullptr) {
    std::fprintf(stderr, "--type must be Grapes, GGSX or CT-Index\n");
    return 2;
  }
  WallTimer timer;
  if (!index->Build(db, Deadline::AfterSeconds(flags.GetDouble(
                            "build-limit", kDefaultBuildTimeoutSeconds)))) {
    std::fprintf(stderr, "index construction timed out (OOT)\n");
    return 1;
  }
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  std::string error;
  if (!index->SaveToFile(out, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("built %s over %zu graphs in %.1f ms (%.3f MB) -> %s\n",
              index->name(), db.size(), timer.ElapsedMillis(),
              static_cast<double>(index->MemoryBytes()) / (1024.0 * 1024.0),
              out.c_str());
  return 0;
}

int CmdFilter(const Flags& flags) {
  if (!flags.Validate({"index", "type", "queries"})) return 2;
  auto index = MakeIndexByType(flags.Get("type", "Grapes"));
  if (index == nullptr) {
    std::fprintf(stderr, "--type must be Grapes, GGSX or CT-Index\n");
    return 2;
  }
  std::string error;
  if (!index->LoadFromFile(flags.Get("index", ""), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  GraphDatabase queries;
  if (!LoadDatabase(flags.Get("queries", ""), &queries, &error)) {
    std::fprintf(stderr, "failed to load queries: %s\n", error.c_str());
    return 1;
  }
  for (GraphId i = 0; i < queries.size(); ++i) {
    const auto candidates = index->FilterCandidates(queries.graph(i));
    std::printf("query %u: %zu candidates:", i, candidates.size());
    for (GraphId g : candidates) std::printf(" %u", g);
    std::printf("\n");
  }
  return 0;
}

int CmdCrosscheck(const Flags& flags) {
  if (!flags.Validate({"db", "queries", "time-limit", "build-limit"})) {
    return 2;
  }
  GraphDatabase db;
  if (!LoadDbOrDie(flags.Get("db", ""), &db)) return 1;
  GraphDatabase queries;
  std::string error;
  if (!LoadDatabase(flags.Get("queries", ""), &queries, &error)) {
    std::fprintf(stderr, "failed to load queries: %s\n", error.c_str());
    return 1;
  }
  const double build_limit =
      flags.GetDouble("build-limit", kDefaultBuildTimeoutSeconds);
  const double time_limit =
      flags.GetDouble("time-limit", kDefaultQueryTimeoutSeconds);

  struct Row {
    std::string name;
    double prep_ms = 0;
    double query_ms = 0;
    uint32_t timeouts = 0;
    bool prepared = false;
    std::vector<std::vector<GraphId>> answers;
  };
  std::vector<Row> rows;
  for (const std::string& name : KnownEngineNames()) {
    Row row;
    row.name = name;
    auto engine = MakeEngine(name);
    WallTimer prep_timer;
    row.prepared =
        engine->Prepare(db, Deadline::AfterSeconds(build_limit));
    row.prep_ms = prep_timer.ElapsedMillis();
    if (row.prepared) {
      for (GraphId i = 0; i < queries.size(); ++i) {
        const QueryResult r = engine->Query(
            queries.graph(i), Deadline::AfterSeconds(time_limit));
        row.query_ms += r.stats.QueryMs();
        row.timeouts += r.stats.timed_out ? 1 : 0;
        row.answers.push_back(r.answers);
      }
    }
    rows.push_back(std::move(row));
  }

  // Agreement: compare every prepared, timeout-free engine to the first.
  const Row* reference = nullptr;
  for (const Row& row : rows) {
    if (row.prepared && row.timeouts == 0) {
      reference = &row;
      break;
    }
  }
  int disagreements = 0;
  std::printf("%-14s %10s %12s %9s %s\n", "engine", "prep ms", "query ms",
              "timeouts", "answers");
  for (const Row& row : rows) {
    std::string status;
    if (!row.prepared) {
      status = "FAILED TO PREPARE (OOT/OOM)";
    } else if (row.timeouts > 0) {
      status = "partial (timeouts)";
    } else if (reference != nullptr && row.answers != reference->answers) {
      status = "DISAGREES";
      ++disagreements;
    } else {
      status = "agrees";
    }
    std::printf("%-14s %10.1f %12.2f %9u %s\n", row.name.c_str(),
                row.prep_ms, row.query_ms, row.timeouts, status.c_str());
  }
  if (disagreements > 0) {
    std::fprintf(stderr, "%d engine(s) disagree — this is a bug\n",
                 disagreements);
    return 1;
  }
  std::printf("all prepared, timeout-free engines agree on %zu queries\n",
              queries.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.ok()) return 2;
  if (command == "generate") return CmdGenerate(flags);
  if (command == "biggen") return CmdBiggen(flags);
  if (command == "standin") return CmdStandin(flags);
  if (command == "genq") return CmdGenq(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "index") return CmdIndex(flags);
  if (command == "filter") return CmdFilter(flags);
  if (command == "crosscheck") return CmdCrosscheck(flags);
  return Usage();
}
