// Parallel vcFV: Algorithm 2 with the data graphs partitioned across worker
// threads. Each data graph is filtered and verified independently by the
// per-graph step the serial engines use (VerifyGraph, in
// query/filter_verify_engine.h), so the loop parallelizes embarrassingly — the index-free counterpart of Grapes'
// parallel index construction (the paper's related work, [19]/[31], notes
// single-machine parallel subgraph matching as the natural extension).
//
// Concurrency substrate: the engine owns a persistent ThreadPool (created
// once, reused by every Query) plus one worker slot per executor — the pool
// threads and the calling thread, which ParallelFor drafts into the chunk
// loop instead of letting it sleep. Each slot holds a Matcher instance and a
// MatchWorkspace. Work is handed out in chunks of `chunk_size` graphs per
// atomic operation (ThreadPool::ParallelFor), and the workspace recycles
// candidate-set/CPI/enumeration buffers across all graphs a slot processes —
// the two fixed costs a per-query thread spawn used to re-pay.
//
// Time accounting: filtering_ms / verification_ms are the summed per-slot
// phase nanos divided by the executor count — a parallel wall-clock estimate
// comparable with the serial engines (see the convention in query/stats.h).
//
// Query() is not reentrant: one Query at a time per engine (the worker
// slots and the pool are shared state).
#ifndef SGQ_QUERY_PARALLEL_VCFV_ENGINE_H_
#define SGQ_QUERY_PARALLEL_VCFV_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "matching/matcher.h"
#include "matching/workspace.h"
#include "query/query_engine.h"
#include "util/thread_pool.h"

namespace sgq {

class ParallelVcfvEngine : public QueryEngine {
 public:
  // `matcher_factory` is invoked once per worker slot when the engine is
  // built; the instances (and their workspaces) persist across queries.
  // `num_threads` defaults to the hardware concurrency; `chunk_size` is the
  // number of graphs a worker claims per scheduling step (0 = pick
  // automatically from the database size).
  ParallelVcfvEngine(std::string name,
                     std::function<std::unique_ptr<Matcher>()> matcher_factory,
                     uint32_t num_threads = 0, uint32_t chunk_size = 0);

  const char* name() const override { return name_.c_str(); }

  bool Prepare(const GraphDatabase& db, Deadline deadline) override;

  using QueryEngine::Query;
  // The one scan loop: executors claim contiguous graph chunks through
  // ThreadPool::ParallelFor. With no sink each chunk's answers land in the
  // slot's accumulator and are sorted at the end. With a sink a chunk-order
  // reassembly buffer emits each finished chunk's answers the moment every
  // earlier chunk has been emitted, so the sink sees ascending ids identical
  // to the (sorted) batch answers at any thread count; a sink stop cancels
  // the remaining scan and result.answers is the emitted prefix. On TIMEOUT
  // both modes keep every answer confirmed before the scan stopped.
  QueryResult Query(const Graph& query, Deadline deadline,
                    ResultSink* sink) const override;

  size_t IndexMemoryBytes() const override { return 0; }

  uint32_t num_threads() const { return pool_->num_threads(); }
  uint32_t chunk_size() const { return chunk_size_; }

 private:
  struct WorkerSlot {
    std::unique_ptr<Matcher> matcher;
    MatchWorkspace workspace;
  };

  std::string name_;
  uint32_t chunk_size_;
  std::unique_ptr<ThreadPool> pool_;
  // One slot per executor (pool threads + the participating caller);
  // ParallelFor guarantees a slot is driven by at most one thread at a
  // time, so slots need no locks. Mutable because the
  // workspaces accumulate reusable buffers across const Query() calls.
  // unique_ptr because MatchWorkspace is neither copyable nor movable.
  mutable std::vector<std::unique_ptr<WorkerSlot>> slots_;
  const GraphDatabase* db_ = nullptr;
};

}  // namespace sgq

#endif  // SGQ_QUERY_PARALLEL_VCFV_ENGINE_H_
