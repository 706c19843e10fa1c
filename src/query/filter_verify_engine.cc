#include "query/filter_verify_engine.h"

#include <algorithm>

#include "util/logging.h"
#include "util/timer.h"

namespace sgq {

void ScanCounters::Add(const ScanCounters& other) {
  candidates += other.candidates;
  si_tests += other.si_tests;
  max_aux = std::max(max_aux, other.max_aux);
  filter_nanos += other.filter_nanos;
  verify_nanos += other.verify_nanos;
  kernel.AddCounters(other.kernel);
}

void ScanCounters::FoldInto(uint32_t executors, QueryStats* stats) const {
  stats->num_candidates = candidates;
  stats->si_tests = si_tests;
  stats->aux_memory_bytes = max_aux;
  stats->filtering_ms = static_cast<double>(filter_nanos) / executors / 1e6;
  stats->verification_ms =
      static_cast<double>(verify_nanos) / executors / 1e6;
  AddIntersectCounters(stats, kernel);
}

GraphVerdict VerifyGraph(const Graph& query, const Graph& data,
                         const Matcher* matcher, const Vf2& vf2,
                         DeadlineChecker* checker, MatchWorkspace* ws,
                         ScanCounters* counters) {
  WallTimer timer;
  if (matcher == nullptr) {
    const int outcome = vf2.Contains(query, data, checker, ws);
    counters->verify_nanos += timer.ElapsedNanos();
    ++counters->si_tests;
    return {.contained = outcome == 1, .aborted = outcome == -1};
  }
  const FilterData* filter_data = matcher->Filter(query, data, ws);
  counters->filter_nanos += timer.ElapsedNanos();
  counters->max_aux = std::max(counters->max_aux, filter_data->MemoryBytes());
  if (!filter_data->Passed()) return {};
  ++counters->candidates;
  timer.Restart();
  const EnumerateResult er = matcher->Enumerate(
      query, data, *filter_data, /*limit=*/1, checker, ws);
  counters->verify_nanos += timer.ElapsedNanos();
  ++counters->si_tests;
  counters->kernel.AddCounters(er);
  return {.contained = er.embeddings > 0, .aborted = er.aborted};
}

bool FilterVerifyEngine::Prepare(const GraphDatabase& db, Deadline deadline) {
  db_ = &db;
  return index_ == nullptr || index_->Build(db, deadline);
}

bool FilterVerifyEngine::NotifyAdded(GraphId id, Deadline deadline) {
  SGQ_CHECK(db_ != nullptr);
  SGQ_CHECK_LT(id, db_->size());
  return index_ == nullptr || index_->AppendGraph(db_->graph(id), deadline);
}

bool FilterVerifyEngine::ApplyUpdate(const GraphDatabase& db,
                                     std::span<const DbDelta> deltas,
                                     Deadline deadline) {
  if (index_ == nullptr || !index_->built()) return Prepare(db, deadline);
  db_ = &db;
  for (const DbDelta& d : deltas) {
    if (d.kind == DbDelta::Kind::kAdd) {
      // AppendGraph assigns logical id == previous index size; the delta
      // must describe exactly that append or the mapping would skew.
      if (d.local_id != index_->NumLogicalGraphs()) {
        return Prepare(db, deadline);
      }
      if (!index_->AppendGraph(d.added, deadline)) return false;
    } else {
      if (d.local_id >= index_->NumLogicalGraphs()) {
        return Prepare(db, deadline);
      }
      index_->OnOrderedRemove(d.local_id);
    }
  }
  // The replayed chain must land exactly on the target database.
  if (index_->NumLogicalGraphs() != db.size()) return Prepare(db, deadline);
  return true;
}

QueryResult FilterVerifyEngine::Query(const Graph& query, Deadline deadline,
                                      ResultSink* sink) const {
  SGQ_CHECK(db_ != nullptr && (index_ == nullptr || index_->built()))
      << name_ << ": Prepare() must succeed before Query()";
  QueryResult result;
  // A deadline that expired before we start (e.g. while the request sat in
  // a service admission queue) is the OOT outcome with zero work done.
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  DeadlineChecker checker(deadline);
  ScanCounters counters;
  const uint64_t ws_hits_before = workspace_.filter_hits();
  const uint64_t ws_misses_before = workspace_.filter_misses();

  // Level 1: the index's candidates C'(q) (Section IV-B2), or every graph.
  std::vector<GraphId> index_candidates;
  if (index_ != nullptr) {
    WallTimer timer;
    index_candidates = index_->FilterCandidates(query);
    counters.filter_nanos += timer.ElapsedNanos();
  }
  const size_t num_graphs =
      index_ != nullptr ? index_candidates.size() : db_->size();

  for (size_t i = 0; i < num_graphs; ++i) {
    const GraphId g =
        index_ != nullptr ? index_candidates[i] : static_cast<GraphId>(i);
    const GraphVerdict verdict =
        VerifyGraph(query, db_->graph(g), matcher_.get(), vf2_, &checker,
                    &workspace_, &counters);
    bool sink_stopped = false;
    if (verdict.contained) {
      result.answers.push_back(g);
      if (sink != nullptr) sink_stopped = !sink->OnAnswer(g);
    }
    if (verdict.aborted) {
      result.stats.timed_out = true;
      break;
    }
    if (sink_stopped) break;
    if (sink != nullptr && (i + 1) % kSinkFlushIntervalGraphs == 0) {
      sink->FlushHint();
    }
    // The verification polls the clock only every 1024 ticks; between
    // graphs we poll it directly so a stretch of cheap graphs cannot
    // overrun the limit.
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      break;
    }
  }
  if (sink != nullptr) sink->FlushHint();
  counters.FoldInto(/*executors=*/1, &result.stats);
  // Without a matcher every level-1 survivor is a candidate for VF2,
  // including those a timeout left unvisited.
  if (matcher_ == nullptr) result.stats.num_candidates = num_graphs;
  result.stats.num_answers = result.answers.size();
  result.stats.ws_filter_hits = workspace_.filter_hits() - ws_hits_before;
  result.stats.ws_filter_misses =
      workspace_.filter_misses() - ws_misses_before;
  return result;
}

}  // namespace sgq
