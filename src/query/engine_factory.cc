#include "query/engine_factory.h"

#include "index/ct_index.h"
#include "index/ggsx_index.h"
#include "index/graphgrep_index.h"
#include "index/grapes_index.h"
#include "index/mined_path_index.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/direct_enumeration.h"
#include "matching/graphql.h"
#include "matching/spath.h"
#include "matching/turboiso.h"
#include "matching/vf2.h"
#include "matching/workspace.h"
#include "query/ifv_engine.h"
#include "query/ivcfv_engine.h"
#include "query/parallel_vcfv_engine.h"
#include "query/vcfv_engine.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sgq {

namespace {

// The naive baseline from Section III-B: run (first-match) VF2 against every
// data graph, no filtering at all. Every graph is a "candidate".
class Vf2ScanEngine : public QueryEngine {
 public:
  const char* name() const override { return "VF2-scan"; }

  bool Prepare(const GraphDatabase& db, Deadline deadline) override {
    (void)deadline;
    db_ = &db;
    return true;
  }

  QueryResult Query(const Graph& query, Deadline deadline) const override {
    return Query(query, deadline, /*sink=*/nullptr);
  }

  QueryResult Query(const Graph& query, Deadline deadline,
                    ResultSink* sink) const override {
    SGQ_CHECK(db_ != nullptr);
    QueryResult result;
    // Expired before we start: OOT with zero work done (see vcfv_engine.cc).
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      return result;
    }
    DeadlineChecker checker(deadline);
    WallTimer verify_timer;
    result.stats.num_candidates = db_->size();
    for (GraphId g = 0; g < db_->size(); ++g) {
      const int outcome =
          verifier_.Contains(query, db_->graph(g), &checker, &workspace_);
      ++result.stats.si_tests;
      bool sink_stopped = false;
      if (outcome == 1) {
        result.answers.push_back(g);
        if (sink != nullptr) sink_stopped = !sink->OnAnswer(g);
      }
      if (outcome == -1 || deadline.Expired()) {
        result.stats.timed_out = true;
        break;
      }
      if (sink_stopped) break;
      if (sink != nullptr && (g % kSinkFlushIntervalGraphs) ==
                                 kSinkFlushIntervalGraphs - 1) {
        sink->FlushHint();
      }
    }
    if (sink != nullptr) sink->FlushHint();
    result.stats.verification_ms = verify_timer.ElapsedMillis();
    result.stats.num_answers = result.answers.size();
    return result;
  }

  size_t IndexMemoryBytes() const override { return 0; }

 private:
  Vf2 verifier_;
  mutable MatchWorkspace workspace_;
  const GraphDatabase* db_ = nullptr;
};

GrapesOptions GrapesOptionsFrom(const EngineConfig& config) {
  GrapesOptions o;
  o.max_path_edges = config.max_path_edges;
  o.num_threads = config.grapes_threads;
  o.memory_limit_bytes = config.index_memory_limit_bytes;
  return o;
}

GgsxOptions GgsxOptionsFrom(const EngineConfig& config) {
  GgsxOptions o;
  o.max_path_edges = config.max_path_edges;
  o.memory_limit_bytes = config.index_memory_limit_bytes;
  return o;
}

CtIndexOptions CtOptionsFrom(const EngineConfig& config) {
  CtIndexOptions o;
  o.fingerprint_bits = config.ct_fingerprint_bits;
  o.max_tree_edges = config.ct_max_tree_edges;
  o.max_cycle_length = config.ct_max_cycle_length;
  return o;
}

}  // namespace

std::unique_ptr<QueryEngine> MakeEngine(const std::string& name,
                                        const EngineConfig& config) {
  // IFV (Table III): index filter + VF2 verification.
  if (name == "CT-Index") {
    return std::make_unique<IfvEngine>(
        name, std::make_unique<CtIndex>(CtOptionsFrom(config)),
        Vf2Options{.heuristic_order = true});
  }
  if (name == "Grapes") {
    return std::make_unique<IfvEngine>(
        name, std::make_unique<GrapesIndex>(GrapesOptionsFrom(config)));
  }
  if (name == "GGSX") {
    return std::make_unique<IfvEngine>(
        name, std::make_unique<GgsxIndex>(GgsxOptionsFrom(config)));
  }
  // Extension: gIndex-style mining-based path index.
  if (name == "MinedPath") {
    MinedPathOptions options;
    options.max_path_edges = config.max_path_edges;
    options.memory_limit_bytes = config.index_memory_limit_bytes;
    return std::make_unique<IfvEngine>(
        name, std::make_unique<MinedPathIndex>(options));
  }
  // Extension: GraphGrep [30], the original hash-table path index.
  if (name == "GraphGrep") {
    GraphGrepOptions options;
    options.max_path_edges = config.max_path_edges;
    options.memory_limit_bytes = config.index_memory_limit_bytes;
    return std::make_unique<IfvEngine>(
        name, std::make_unique<GraphGrepIndex>(options));
  }
  // vcFV: matcher preprocessing filter + first-match enumeration.
  if (name == "CFL") {
    return std::make_unique<VcfvEngine>(name, std::make_unique<CflMatcher>());
  }
  if (name == "GraphQL") {
    return std::make_unique<VcfvEngine>(name,
                                        std::make_unique<GraphQlMatcher>());
  }
  if (name == "CFQL") {
    return std::make_unique<VcfvEngine>(name,
                                        std::make_unique<CfqlMatcher>());
  }
  // IvcFV: index filter + CFQL filter + CFQL verification.
  if (name == "vcGrapes") {
    return std::make_unique<IvcfvEngine>(
        name, std::make_unique<GrapesIndex>(GrapesOptionsFrom(config)),
        std::make_unique<CfqlMatcher>());
  }
  if (name == "vcGGSX") {
    return std::make_unique<IvcfvEngine>(
        name, std::make_unique<GgsxIndex>(GgsxOptionsFrom(config)),
        std::make_unique<CfqlMatcher>());
  }
  // Extensions beyond the paper's Table III: TurboIso as a third vcFV
  // algorithm (the paper names it as equally modifiable), and the
  // direct-enumeration algorithms as vcFV-style scans for comparison.
  if (name == "TurboIso") {
    return std::make_unique<VcfvEngine>(name,
                                        std::make_unique<TurboIsoMatcher>());
  }
  if (name == "QuickSI") {
    return std::make_unique<VcfvEngine>(name,
                                        std::make_unique<QuickSiMatcher>());
  }
  if (name == "SPath") {
    return std::make_unique<VcfvEngine>(name,
                                        std::make_unique<SPathMatcher>());
  }
  if (name == "CFQL-parallel") {
    return std::make_unique<ParallelVcfvEngine>(
        name, [] { return std::make_unique<CfqlMatcher>(); },
        config.parallel_threads, config.parallel_chunk);
  }
  if (name == "VF2-scan") {
    return std::make_unique<Vf2ScanEngine>();
  }
  SGQ_LOG(Fatal) << "unknown engine: " << name;
  return nullptr;
}

bool IsKnownEngine(const std::string& name) {
  static const std::vector<std::string>& kExtensions =
      *new std::vector<std::string>{"MinedPath", "GraphGrep", "TurboIso",
                                    "QuickSI",   "SPath",     "CFQL-parallel",
                                    "VF2-scan"};
  for (const std::string& n : AllEngineNames()) {
    if (n == name) return true;
  }
  for (const std::string& n : kExtensions) {
    if (n == name) return true;
  }
  return false;
}

const std::vector<std::string>& AllEngineNames() {
  static const std::vector<std::string>& kNames =
      *new std::vector<std::string>{"CT-Index", "Grapes",  "GGSX",
                                    "CFL",      "GraphQL", "CFQL",
                                    "vcGrapes", "vcGGSX"};
  return kNames;
}

}  // namespace sgq
