// The filter→verify engines of Table III, as one class. Level 1 is an
// optional IFV index (Algorithm 1's filter). Level 2, per surviving data
// graph, is either a matcher's preprocessing filter plus first-match
// enumeration (Algorithm 2) or, with no matcher, one VF2 test:
//
//   index  matcher  family      engines
//   yes    no       IFV         CT-Index, Grapes, GGSX, GraphGrep, MinedPath
//   no     yes      vcFV        CFL, GraphQL, CFQL, TurboIso, QuickSI, SPath
//   yes    yes      IvcFV       vcGrapes, vcGGSX
//   no     no       (baseline)  VF2-scan
//
// The per-graph step (VerifyGraph) and its counters (ScanCounters) are
// shared with ParallelVcfvEngine, which runs the same step from its worker
// chunks.
#ifndef SGQ_QUERY_FILTER_VERIFY_ENGINE_H_
#define SGQ_QUERY_FILTER_VERIFY_ENGINE_H_

#include <memory>
#include <string>

#include "index/graph_index.h"
#include "matching/matcher.h"
#include "matching/vf2.h"
#include "matching/workspace.h"
#include "query/query_engine.h"

namespace sgq {

// What one scan (or one parallel executor's share of it) did, folded into
// QueryStats once at the end.
struct ScanCounters {
  uint64_t candidates = 0;  // graphs that passed the matcher's filter
  uint64_t si_tests = 0;
  size_t max_aux = 0;       // peak FilterData footprint
  int64_t filter_nanos = 0;
  int64_t verify_nanos = 0;
  EnumerateResult kernel;   // intersect_*/local_candidates sums

  void Add(const ScanCounters& other);

  // Writes the counters into `stats`. Phase times are divided by
  // `executors`: the parallel wall-clock estimate of query/stats.h, which
  // is the plain sum for a serial scan (executors == 1).
  void FoldInto(uint32_t executors, QueryStats* stats) const;
};

struct GraphVerdict {
  bool contained = false;  // query ⊆ data
  bool aborted = false;    // the deadline cut the test short
};

// The per-graph step. With a matcher: its filter (Algorithm 2, line 4)
// and, if Φ passed, first-match enumeration (line 6). Without: one VF2
// test under `vf2` (Algorithm 1's verification). Scratch comes from `ws`.
GraphVerdict VerifyGraph(const Graph& query, const Graph& data,
                         const Matcher* matcher, const Vf2& vf2,
                         DeadlineChecker* checker, MatchWorkspace* ws,
                         ScanCounters* counters);

class FilterVerifyEngine : public QueryEngine {
 public:
  // Either part may be null (see the table above). `vf2_options` applies
  // only without a matcher (CT-Index's heuristic order).
  FilterVerifyEngine(std::string name, std::unique_ptr<GraphIndex> index,
                     std::unique_ptr<Matcher> matcher,
                     Vf2Options vf2_options = {})
      : name_(std::move(name)),
        index_(std::move(index)),
        matcher_(std::move(matcher)),
        vf2_(vf2_options) {}

  const char* name() const override { return name_.c_str(); }

  // Binds the database and builds the index, if any.
  bool Prepare(const GraphDatabase& db, Deadline deadline) override;

  // Incremental index maintenance: kAdd appends the new graph's features,
  // kRemove drops the graph from the id translation layer (postings stay;
  // stale entries are filtered at query time). Falls back to a full
  // Prepare when the delta chain does not line up with the indexed state.
  bool ApplyUpdate(const GraphDatabase& db, std::span<const DbDelta> deltas,
                   Deadline deadline) override;

  using QueryEngine::Query;
  // The one serial scan: over the index candidates, or every graph. Each
  // confirmed answer reaches the sink the moment VerifyGraph confirms it,
  // and a sink stop ends the scan at the current graph.
  QueryResult Query(const Graph& query, Deadline deadline,
                    ResultSink* sink) const override;

  size_t IndexMemoryBytes() const override {
    return index_ != nullptr ? index_->MemoryBytes() : 0;
  }

  GraphIndex::BuildFailure prepare_failure() const override {
    return index_ != nullptr ? index_->build_failure()
                             : GraphIndex::BuildFailure::kNone;
  }

  // Maintenance mirroring GraphDatabase's swap-remove updates: call
  // NotifyAdded(id) right after db.Add() returned `id`, and
  // NotifyRemoved(id) right after db.Remove(id); no-ops without an index.
  // NotifyAdded returns false on deadline expiry, after which the engine
  // requires a full Prepare().
  bool NotifyAdded(GraphId id, Deadline deadline = Deadline::Infinite());
  void NotifyRemoved(GraphId id) {
    if (index_ != nullptr) index_->OnSwapRemove(id);
  }

 private:
  std::string name_;
  std::unique_ptr<GraphIndex> index_;
  std::unique_ptr<Matcher> matcher_;
  Vf2 vf2_;
  // Recycled level-2 scratch; makes Query() non-reentrant (one Query at a
  // time per engine).
  mutable MatchWorkspace workspace_;
  const GraphDatabase* db_ = nullptr;
};

}  // namespace sgq

#endif  // SGQ_QUERY_FILTER_VERIFY_ENGINE_H_
