// A long-running query service: owns a loaded GraphDatabase and prepared
// engines, admits requests through a bounded queue with backpressure, and
// enforces a per-request deadline that covers queue wait *and* execution.
//
// Concurrency model: `workers` executor threads, each with its own
// prepared QueryEngine clone (engines keep mutable per-query workspaces,
// so they are confined to one thread; the database itself is shared
// read-only). Admission is O(1) under one mutex:
//
//   Execute() ── full queue ──────────────▶ kOverloaded (rejected, counted)
//       │
//       ▼ admitted (deadline starts NOW)
//   pending queue ── worker pops, deadline already expired ─▶ kTimeout
//       │                              (cancelled without touching the db)
//       ▼
//   engine->Query(q, deadline) ─▶ kOk, or kTimeout with partial answers
//
// Shutdown() stops admission and *drains* everything already admitted —
// an admitted request is a promise.
//
// Live mutations (src/update/db_version.h): the database lives behind a
// VersionedDb. Every request pins the current immutable version (and the
// cache's mutation sequence) at admission, under the same mutex mutations
// publish under, so a query runs against exactly one consistent snapshot.
// AddGraph/RemoveGraph apply copy-on-write at graph granularity and
// publish a bumped epoch — queries already in flight keep their pinned
// version, new queries see the new one, nobody quiesces. Workers sync
// their private engine to a request's pinned version lazily: forward
// moves replay the recorded delta chain through QueryEngine::ApplyUpdate
// (incremental IFV index maintenance; O(1) re-point for the index-free
// engines), anything the delta ring no longer covers falls back to a full
// Prepare. Reload() is the same publish path with a cleared history — it
// swaps the whole database without draining anything.
#ifndef SGQ_SERVICE_QUERY_SERVICE_H_
#define SGQ_SERVICE_QUERY_SERVICE_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "cache/singleflight.h"
#include "graph/graph_database.h"
#include "query/engine_factory.h"
#include "query/query_engine.h"
#include "query/result_sink.h"
#include "service/cost_model.h"
#include "update/db_version.h"
#include "util/defaults.h"

namespace sgq {

struct ServiceConfig {
  std::string engine_name = "CFQL";
  EngineConfig engine;
  // Concurrent query executors; each gets its own engine clone (index
  // engines build one index per worker — size accordingly).
  uint32_t workers = 2;
  // Admitted-but-not-running bound; beyond it Execute() rejects with
  // kOverloaded instead of queueing unboundedly.
  size_t queue_capacity = 64;
  double default_timeout_seconds = kDefaultQueryTimeoutSeconds;
  double build_timeout_seconds = kDefaultBuildTimeoutSeconds;
  // Admission scheduling policy: "fifo" serves in arrival order; "sjf" is
  // the cost-aware two-class scheduler — requests are classed cheap/heavy
  // by the CostModel estimate at admission, the cheapest cheap request runs
  // first (heavy only when no cheap request waits), and any request that
  // has waited sched_aging_ms is served next regardless of class so heavy
  // work cannot starve. The SGQ_SCHED environment variable ("fifo"|"sjf")
  // overrides this setting either way.
  std::string sched = "fifo";
  // CostModel estimate at or above which a request is classed heavy.
  double sched_heavy_threshold = 10000.0;
  // Anti-starvation aging: a request older than this is served FIFO.
  double sched_aging_ms = 400.0;
  // Test-only seam: called by a worker right before an engine execution
  // (cache hits and singleflight followers never trigger it). Lets tests
  // hold the singleflight leader in place deterministically.
  std::function<void(const Graph&)> pre_execute_hook;
};

// Per-class (cheap/heavy) completion-latency accounting: count/total/max
// plus a log2 histogram of admission-to-completion latency. Bucket 0 counts
// completions under 1 ms, bucket i completions in [2^(i-1), 2^i) ms, and
// the last bucket everything beyond.
struct SchedClassStats {
  uint64_t count = 0;
  double total_ms = 0;
  double max_ms = 0;
  std::array<uint64_t, 16> buckets{};

  void Record(double ms);
  std::string ToJson() const;
};

// Aggregated counters; invariant once quiescent:
//   received == admitted + rejected_overloaded, and
//   admitted == completed_ok + completed_timeout (+ still queued/running).
struct ServiceStatsSnapshot {
  uint64_t received = 0;
  uint64_t admitted = 0;
  uint64_t rejected_overloaded = 0;
  uint64_t completed_ok = 0;
  uint64_t completed_timeout = 0;
  uint64_t bad_requests = 0;  // protocol-level, counted via CountBadRequest
  uint64_t reloads = 0;
  // Live-mutation counters (serialized as a nested "update" object).
  uint64_t mutations_add = 0;
  uint64_t mutations_remove = 0;
  uint64_t mutation_failures = 0;  // rejected ADD/REMOVE (bad id, not found)
  // Mutations applied while at least one query was executing — the
  // zero-quiesce witness: writes never waited for reads.
  uint64_t mutations_during_queries = 0;
  // Worker-engine version syncs: delta-chain replays vs full re-prepares.
  uint64_t engine_incremental_syncs = 0;
  uint64_t engine_full_rebuilds = 0;
  uint64_t engine_sync_failures = 0;
  // Cost-model staleness: refreshes counts incremental AddGraph/RemoveGraph
  // applications; stale counts mutations whose statistics refresh was
  // skipped (0 unless a refresh path is ever bypassed — the SJF estimate
  // tracks the live database exactly while this stays 0).
  uint64_t cost_model_refreshes = 0;
  uint64_t cost_model_stale = 0;
  uint64_t db_epoch = 0;         // current published version
  uint64_t next_global_id = 0;   // next id an ADD would assign
  uint64_t answers_total = 0;
  double filtering_ms_total = 0;
  double verification_ms_total = 0;
  // Intersection-kernel totals over all completed queries (see the
  // intersect_* fields of QueryStats).
  uint64_t intersect_calls_total = 0;
  uint64_t local_candidates_total = 0;
  uint64_t queue_peak = 0;  // high-water mark of the pending queue
  uint64_t queue_depth = 0; // currently pending
  uint64_t in_flight = 0;   // currently executing
  // Completed requests that actually ran an engine (the rest were served
  // by the cache or a singleflight leader):
  //   admitted == engine_executions + cache.hits + cache.singleflight_shared
  //               (+ queue-expired cancellations + still queued/running).
  uint64_t engine_executions = 0;
  size_t db_graphs = 0;
  // Scheduling: resolved policy, anti-starvation promotions, and per-class
  // completion latency (serialized as a nested "sched" object).
  std::string sched_policy = "fifo";
  uint64_t sched_aged = 0;
  SchedClassStats sched_cheap;
  SchedClassStats sched_heavy;
  // Result-cache counters, serialized as a nested "cache" object (the
  // singleflight_* fields are filled by the service, see WorkerLoop).
  CacheStatsSnapshot cache;

  std::string ToJson() const;
};

class QueryService {
 public:
  explicit QueryService(ServiceConfig config);
  ~QueryService();  // implies Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Takes ownership of the database, prepares one engine per worker, and
  // starts the executor threads. False + *error if the engine name is
  // unknown or any Prepare() fails (OOT/OOM).
  bool Start(GraphDatabase db, std::string* error);

  // Sharded variant: `global_ids` maps each local graph id to its id in the
  // unsharded database (see router/shard_map.h). Workers rewrite the answer
  // ids of every response through it, so a shard reports the same ids the
  // unsharded server would and the router can merge shards without any id
  // translation of its own. An empty map is the identity. Must be strictly
  // increasing (keeps answers sorted) and sized to the database.
  bool Start(GraphDatabase db, std::vector<GraphId> global_ids,
             std::string* error);

  enum class Outcome {
    kOk,            // completed within the deadline
    kTimeout,       // deadline expired (queued too long or mid-scan)
    kOverloaded,    // rejected at admission: queue full or reloading
    kShuttingDown,  // rejected: shutdown in progress / not started
  };

  struct Response {
    Outcome outcome = Outcome::kShuttingDown;
    QueryResult result;  // partial answers on kTimeout; empty on rejection
    // On kOverloaded: suggested client backoff, derived from the queue
    // depth and the EWMA completion latency (0 = no estimate available).
    uint64_t retry_after_ms = 0;
    // Epoch of the database version the query ran against (0 on
    // rejection). Monotone across a client's sequential requests.
    uint64_t db_epoch = 0;
  };

  struct ExecuteOptions {
    double timeout_seconds = 0;  // <= 0 uses the config default
    // First-k early termination: with limit > 0 the engine scan stops at
    // the limit-th confirmed answer (enforced through the engine-level
    // sink, not by truncating a full batch afterwards). 0 = unlimited.
    uint64_t limit = 0;
    // Streaming: every answer id (global ids on sharded deployments) is
    // pushed here from the worker thread as verification confirms it; the
    // response's answer vector still holds the full emitted prefix. The
    // sink must stay valid until Execute returns. May be null.
    ResultSink* sink = nullptr;
  };

  // Blocking request: admits, waits for a worker, returns the outcome.
  // Safe to call from any number of threads concurrently.
  Response Execute(Graph query, const ExecuteOptions& options);

  // Legacy convenience overload: batch, unlimited.
  Response Execute(Graph query, double timeout_seconds = 0);

  // Outcome of AddGraph/RemoveGraph. `global_id` is the stable id the
  // graph is (or was) served under; `db_epoch` the version the mutation
  // published.
  struct MutationResult {
    bool ok = false;
    GraphId global_id = 0;
    uint64_t db_epoch = 0;
    std::string error;
  };

  // Live mutations: publish a new database version without quiescing.
  // In-flight queries keep their pinned snapshot; affected cached results
  // are invalidated selectively. AddGraph assigns the next global id
  // (monotonic, never reused) unless `forced_global_id` pre-assigns one
  // (the router does this so every shard agrees on ids; it must be >= the
  // current next id). Both return immediately after the version and cache
  // purge are published — no waiting on queries.
  MutationResult AddGraph(Graph graph,
                          const GraphId* forced_global_id = nullptr);
  MutationResult RemoveGraph(GraphId global_id);

  // Swaps in a whole new database — the same publish path as a mutation,
  // with the incremental history cut (workers fully re-prepare lazily) and
  // the result cache dropped wholesale via an epoch bump. Does not drain:
  // in-flight queries finish on their pinned versions. False + *error only
  // for malformed arguments or a stopped service.
  bool Reload(GraphDatabase db, std::string* error);
  bool Reload(GraphDatabase db, std::vector<GraphId> global_ids,
              std::string* error);

  // Graceful: stops admission, drains every admitted request, joins the
  // workers. Idempotent.
  void Shutdown();

  // Lets the protocol front end count codec failures in the same snapshot.
  void CountBadRequest();

  // CACHE CLEAR: drops every cached result (the epoch stays, so in-flight
  // executions may still repopulate current-epoch keys afterwards — the
  // entries they write are freshly computed, not stale).
  void CacheClear();

  ServiceStatsSnapshot Stats() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct PendingRequest {
    Graph query;
    Deadline deadline;
    uint64_t limit = 0;
    ResultSink* sink = nullptr;
    double cost = 0;    // CostModel estimate at admission
    bool heavy = false; // cost >= sched_heavy_threshold
    std::chrono::steady_clock::time_point admitted_at;
    // Snapshot pinned at admission (under mu_): the immutable database
    // version this request runs against, the cache mutation sequence
    // current at that instant (gates cache hits to entries no fresher than
    // the pin — see cache/result_cache.h), and the cache epoch (so a query
    // racing a RELOAD keys its result to the database it actually ran
    // against, never polluting the new epoch's namespace).
    std::shared_ptr<const DbVersion> version;
    uint64_t pinned_seq = 0;
    uint64_t pinned_epoch = 0;
    std::promise<Response> promise;
  };

  void WorkerLoop(uint32_t worker_id);
  // Brings worker `worker_id`'s private engine to `target` — no-op when
  // already there, delta-chain replay via QueryEngine::ApplyUpdate when the
  // VersionedDb ring still covers the gap, full Prepare otherwise. Called
  // without mu_ (engines are worker-confined). False on build timeout /
  // failure; the engine is then left unprepared and the request fails.
  bool SyncWorkerEngine(uint32_t worker_id,
                        const std::shared_ptr<const DbVersion>& target);
  // Serves one popped request through the cache / singleflight / engine
  // stack, against the request's pinned version. Called without holding
  // mu_. Sets *executed when an engine actually ran and *shared when a
  // singleflight follower adopted the leader's result. The request's
  // `sink` (may be null) is wrapped for global-id rewrite and LIMIT
  // enforcement; when non-null the request bypasses singleflight and never
  // populates the cache (its result may be a partial prefix), though
  // full-result cache hits still serve it by prefix replay.
  Response Serve(QueryEngine* engine, const PendingRequest& req,
                 bool* executed, bool* shared);
  // Picks the next request under mu_ according to the resolved policy.
  std::unique_ptr<PendingRequest> PopNextLocked();
  // Suggested backoff for an OVERLOADED rejection, under mu_.
  uint64_t RetryAfterMsLocked() const;

  const ServiceConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // wakes workers: request or shutdown
  // The database, its global-id map, and the mutation history live behind
  // versioned immutable snapshots (internally synchronized). Requests pin
  // Current() at admission under mu_; AddGraph/RemoveGraph/Reload publish
  // new versions under the same mu_, so a pin and the cache purge that
  // precedes it can never interleave.
  VersionedDb versioned_db_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;  // one per worker
  // The version each worker's engine is currently prepared against
  // (worker-confined like the engine itself; null = unprepared).
  std::vector<std::shared_ptr<const DbVersion>> engine_versions_;
  std::vector<std::thread> workers_;
  std::deque<std::unique_ptr<PendingRequest>> queue_;
  bool started_ = false;
  bool stopping_ = false;
  uint32_t running_ = 0;  // requests currently executing
  ServiceStatsSnapshot stats_;
  // Resolved scheduling policy (config + SGQ_SCHED override), fixed at
  // construction. The cost model is rebuilt at Start/Reload and refreshed
  // incrementally by AddGraph/RemoveGraph, all under mu_; Execute reads it
  // under mu_ too, so the SJF estimate always matches the live database.
  bool sjf_ = false;
  CostModel cost_model_;
  // EWMA of admission-to-completion latency, under mu_; feeds the
  // retry_after_ms hint on OVERLOADED rejections.
  double ewma_latency_ms_ = 0;

  // The cache stack is internally synchronized (sharded mutexes / atomics)
  // and deliberately not guarded by mu_: workers canonicalize, look up,
  // and populate outside the service lock.
  std::unique_ptr<ResultCache> cache_;
  SingleFlight singleflight_;
  uint64_t singleflight_shared_ = 0;  // under mu_, folded into Stats()
};

const char* ToString(QueryService::Outcome outcome);

}  // namespace sgq

#endif  // SGQ_SERVICE_QUERY_SERVICE_H_
