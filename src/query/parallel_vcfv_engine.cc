#include "query/parallel_vcfv_engine.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "query/filter_verify_engine.h"
#include "util/logging.h"

namespace sgq {

namespace {

struct SlotAccumulator {
  std::vector<GraphId> answers;
  ScanCounters counters;
};

}  // namespace

ParallelVcfvEngine::ParallelVcfvEngine(
    std::string name, std::function<std::unique_ptr<Matcher>()> matcher_factory,
    uint32_t num_threads, uint32_t chunk_size)
    : name_(std::move(name)),
      chunk_size_(chunk_size),
      pool_(std::make_unique<ThreadPool>(num_threads)) {
  // One slot per ParallelFor executor: every pool thread plus the calling
  // thread, which participates in the chunk loop under the last slot id.
  const uint32_t num_slots = pool_->num_threads() + 1;
  slots_.reserve(num_slots);
  for (uint32_t i = 0; i < num_slots; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
    slots_.back()->matcher = matcher_factory();
  }
}

bool ParallelVcfvEngine::Prepare(const GraphDatabase& db, Deadline deadline) {
  (void)deadline;
  db_ = &db;
  return true;
}

QueryResult ParallelVcfvEngine::Query(const Graph& query, Deadline deadline,
                                      ResultSink* sink) const {
  SGQ_CHECK(db_ != nullptr) << name_ << ": call Prepare() first";
  QueryResult result;
  // A deadline that expired before we start (e.g. while the request sat in
  // a service admission queue) is the OOT outcome with zero work done.
  if (deadline.Expired()) {
    result.stats.timed_out = true;
    return result;
  }
  const size_t num_graphs = db_->size();
  const uint32_t executors = pool_->num_threads() + 1;

  std::vector<SlotAccumulator> accumulators(executors);
  std::atomic<bool> timed_out{false};
  std::atomic<bool> stop{false};  // the sink asked to stop

  uint64_t ws_hits_before = 0, ws_misses_before = 0;
  for (const auto& slot : slots_) {
    ws_hits_before += slot->workspace.filter_hits();
    ws_misses_before += slot->workspace.filter_misses();
  }

  const size_t chunk = chunk_size_ != 0
                           ? chunk_size_
                           : ThreadPool::DefaultChunk(num_graphs, executors);

  // Ordered chunk reassembly (sink mode only): ParallelFor's chunks are the
  // contiguous ranges [k*chunk, (k+1)*chunk); a finished chunk parks its
  // answers until every earlier chunk has emitted, so the sink sees exactly
  // the ascending-id sequence the sorted batch answers would hold — at any
  // executor count.
  std::mutex emit_mu;
  std::map<size_t, std::vector<GraphId>> parked;
  size_t frontier = 0;
  std::vector<GraphId> emitted;

  auto emit_chunk = [&](size_t begin, std::vector<GraphId>&& answers) {
    std::lock_guard<std::mutex> lock(emit_mu);
    parked.emplace(begin, std::move(answers));
    bool delivered = false;
    while (!parked.empty() && parked.begin()->first == frontier) {
      auto node = parked.extract(parked.begin());
      for (GraphId id : node.mapped()) {
        if (stop.load(std::memory_order_relaxed)) break;
        emitted.push_back(id);
        delivered = true;
        if (!sink->OnAnswer(id)) {
          stop.store(true, std::memory_order_relaxed);
          break;
        }
      }
      frontier = std::min(frontier + chunk, num_graphs);
    }
    if (delivered) sink->FlushHint();
  };

  pool_->ParallelFor(
      num_graphs, chunk, [&](size_t begin, size_t end, uint32_t slot_id) {
        WorkerSlot& slot = *slots_[slot_id];
        SlotAccumulator& acc = accumulators[slot_id];
        std::vector<GraphId> chunk_answers;
        std::vector<GraphId>& out = sink != nullptr ? chunk_answers
                                                    : acc.answers;
        DeadlineChecker checker(deadline);
        for (size_t g = begin; g < end; ++g) {
          if (timed_out.load(std::memory_order_relaxed) ||
              stop.load(std::memory_order_relaxed)) {
            break;
          }
          const GraphVerdict verdict = VerifyGraph(
              query, db_->graph(static_cast<GraphId>(g)), slot.matcher.get(),
              /*vf2=*/Vf2(), &checker, &slot.workspace, &acc.counters);
          if (verdict.contained) out.push_back(static_cast<GraphId>(g));
          if (verdict.aborted || deadline.Expired()) {
            timed_out.store(true, std::memory_order_relaxed);
            break;
          }
        }
        // Cut-short chunks (timeout or sink stop) register too, so the
        // frontier can pass them: on TIMEOUT the sink still receives every
        // answer confirmed before the scan stopped, like the batch result.
        if (sink != nullptr) emit_chunk(begin, std::move(chunk_answers));
      });

  // Merge the per-slot accumulators; the phase times become the parallel
  // wall-clock estimate (see the convention in query/stats.h).
  ScanCounters counters;
  for (const SlotAccumulator& acc : accumulators) {
    counters.Add(acc.counters);
    result.answers.insert(result.answers.end(), acc.answers.begin(),
                          acc.answers.end());
  }
  counters.FoldInto(executors, &result.stats);
  // With a sink the answers are the emitted prefix (already ascending);
  // without one, the sorted union of the slots' answers.
  if (sink != nullptr) {
    result.answers = std::move(emitted);
  } else {
    std::sort(result.answers.begin(), result.answers.end());
  }
  result.stats.num_answers = result.answers.size();
  result.stats.timed_out = timed_out.load();

  uint64_t ws_hits_after = 0, ws_misses_after = 0;
  for (const auto& slot : slots_) {
    ws_hits_after += slot->workspace.filter_hits();
    ws_misses_after += slot->workspace.filter_misses();
  }
  result.stats.ws_filter_hits = ws_hits_after - ws_hits_before;
  result.stats.ws_filter_misses = ws_misses_after - ws_misses_before;
  return result;
}

}  // namespace sgq
