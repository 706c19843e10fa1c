#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "cache/canonical.h"
#include "index/vertex_candidate_index.h"

namespace sgq {

namespace {

void AppendField(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu",
                out->back() == '{' ? "" : ",", key,
                static_cast<unsigned long long>(value));
  *out += buf;
}

void AppendField(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g",
                out->back() == '{' ? "" : ",", key, value);
  *out += buf;
}

// Worker-level sink: rewrites local answer ids to their global ids (through
// the request's pinned version; null = ids are already global, as in cached-
// result replay) before the client-facing sink sees them, and enforces the
// request's LIMIT at the engine (returning false at the limit-th answer
// stops enumeration at the matcher instead of truncating a full batch
// afterwards). The stopping answer itself is delivered.
class WorkerSink : public ResultSink {
 public:
  WorkerSink(ResultSink* inner, const DbVersion* version, uint64_t limit)
      : inner_(inner), version_(version), limit_(limit) {}

  bool OnAnswer(GraphId id) override {
    ++delivered_;
    if (inner_ != nullptr) {
      const GraphId global = version_ == nullptr ? id : version_->GlobalOf(id);
      if (!inner_->OnAnswer(global)) return false;
    }
    return limit_ == 0 || delivered_ < limit_;
  }

  void FlushHint() override {
    if (inner_ != nullptr) inner_->FlushHint();
  }

 private:
  ResultSink* const inner_;
  const DbVersion* const version_;
  const uint64_t limit_;
  uint64_t delivered_ = 0;
};

// Pushes a completed (cached) result through a sink, keeping only the
// prefix the sink accepted — a LIMIT-bearing sink stops the replay the
// same way it would stop a live engine scan.
void ReplayThroughSink(ResultSink* sink, QueryResult* result) {
  size_t emitted = 0;
  for (GraphId id : result->answers) {
    ++emitted;
    if (!sink->OnAnswer(id)) break;
  }
  sink->FlushHint();
  result->answers.resize(emitted);
  result->stats.num_answers = emitted;
}

}  // namespace

void SchedClassStats::Record(double ms) {
  ++count;
  total_ms += ms;
  max_ms = std::max(max_ms, ms);
  size_t bucket = 0;
  if (ms >= 1.0) {
    bucket = std::min(buckets.size() - 1,
                      1 + static_cast<size_t>(std::log2(ms)));
  }
  ++buckets[bucket];
}

std::string SchedClassStats::ToJson() const {
  std::string out = "{";
  AppendField(&out, "count", count);
  AppendField(&out, "total_ms", total_ms);
  AppendField(&out, "max_ms", max_ms);
  out += ",\"buckets\":[";
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(buckets[i]);
  }
  out += "]}";
  return out;
}

std::string ServiceStatsSnapshot::ToJson() const {
  std::string out = "{";
  AppendField(&out, "received", received);
  AppendField(&out, "admitted", admitted);
  AppendField(&out, "rejected_overloaded", rejected_overloaded);
  AppendField(&out, "completed_ok", completed_ok);
  AppendField(&out, "completed_timeout", completed_timeout);
  AppendField(&out, "bad_requests", bad_requests);
  AppendField(&out, "reloads", reloads);
  AppendField(&out, "answers_total", answers_total);
  AppendField(&out, "filtering_ms_total", filtering_ms_total);
  AppendField(&out, "verification_ms_total", verification_ms_total);
  AppendField(&out, "intersect_calls_total", intersect_calls_total);
  AppendField(&out, "local_candidates_total", local_candidates_total);
  AppendField(&out, "queue_peak", queue_peak);
  AppendField(&out, "queue_depth", queue_depth);
  AppendField(&out, "in_flight", in_flight);
  AppendField(&out, "engine_executions", engine_executions);
  AppendField(&out, "db_graphs", static_cast<uint64_t>(db_graphs));
  out += ",\"update\":{";
  AppendField(&out, "mutations_add", mutations_add);
  AppendField(&out, "mutations_remove", mutations_remove);
  AppendField(&out, "mutation_failures", mutation_failures);
  AppendField(&out, "mutations_during_queries", mutations_during_queries);
  AppendField(&out, "engine_incremental_syncs", engine_incremental_syncs);
  AppendField(&out, "engine_full_rebuilds", engine_full_rebuilds);
  AppendField(&out, "engine_sync_failures", engine_sync_failures);
  AppendField(&out, "cost_model_refreshes", cost_model_refreshes);
  AppendField(&out, "cost_model_stale", cost_model_stale);
  AppendField(&out, "db_epoch", db_epoch);
  AppendField(&out, "next_global_id", next_global_id);
  out += "}";
  out += ",\"sched\":{\"policy\":\"" + sched_policy + "\"";
  AppendField(&out, "aged", sched_aged);
  out += ",\"cheap\":" + sched_cheap.ToJson();
  out += ",\"heavy\":" + sched_heavy.ToJson();
  out += "}";
  out += ",\"cache\":";
  out += cache.ToJson();
  out += "}";
  return out;
}

const char* ToString(QueryService::Outcome outcome) {
  switch (outcome) {
    case QueryService::Outcome::kOk:
      return "OK";
    case QueryService::Outcome::kTimeout:
      return "TIMEOUT";
    case QueryService::Outcome::kOverloaded:
      return "OVERLOADED";
    case QueryService::Outcome::kShuttingDown:
      return "SHUTTING_DOWN";
  }
  return "UNKNOWN";
}

QueryService::QueryService(ServiceConfig config)
    : config_(std::move(config)) {
  CacheConfig cache_config;
  cache_config.enabled = config_.engine.cache_mb > 0;
  cache_config.max_bytes = config_.engine.cache_mb << 20;
  cache_ = std::make_unique<ResultCache>(cache_config);
  const char* sched_env = std::getenv("SGQ_SCHED");
  const std::string sched = sched_env != nullptr ? sched_env : config_.sched;
  sjf_ = (sched == "sjf");
  stats_.sched_policy = sjf_ ? "sjf" : "fifo";
}

QueryService::~QueryService() { Shutdown(); }

bool QueryService::Start(GraphDatabase db, std::string* error) {
  return Start(std::move(db), {}, error);
}

bool QueryService::Start(GraphDatabase db, std::vector<GraphId> global_ids,
                         std::string* error) {
  if (!IsKnownEngine(config_.engine_name)) {
    *error = "unknown engine: " + config_.engine_name;
    return false;
  }
  if (!global_ids.empty() && global_ids.size() != db.size()) {
    *error = "global id map covers " + std::to_string(global_ids.size()) +
             " graphs, database has " + std::to_string(db.size());
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) {
    *error = "service already started";
    return false;
  }
  // Attach candidate indexes to massive graphs before the engines prepare:
  // every engine's filtering path picks them up through the Graph.
  AttachCandidateIndexes(&db, config_.engine.candidate_index_min_vertices);
  cost_model_.Build(db);
  const std::shared_ptr<const DbVersion> version =
      versioned_db_.Publish(std::move(db), std::move(global_ids));
  const uint32_t num_workers = std::max(1u, config_.workers);
  const Deadline build_deadline =
      Deadline::AfterSeconds(config_.build_timeout_seconds);
  for (uint32_t i = 0; i < num_workers; ++i) {
    engines_.push_back(MakeEngine(config_.engine_name, config_.engine));
    if (!engines_.back()->Prepare(version->db, build_deadline)) {
      *error = config_.engine_name +
               ": engine preparation failed (OOT/OOM) for worker " +
               std::to_string(i);
      engines_.clear();
      return false;
    }
    engine_versions_.push_back(version);
  }
  started_ = true;
  stats_.db_graphs = version->db.size();
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&QueryService::WorkerLoop, this, i);
  }
  return true;
}

QueryService::Response QueryService::Execute(Graph query,
                                             const ExecuteOptions& options) {
  const double timeout = options.timeout_seconds > 0
                             ? options.timeout_seconds
                             : config_.default_timeout_seconds;
  std::future<Response> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.received;
    if (!started_ || stopping_) {
      ++stats_.rejected_overloaded;
      Response response;
      response.outcome = Outcome::kShuttingDown;
      return response;
    }
    if (queue_.size() >= std::max<size_t>(1, config_.queue_capacity)) {
      ++stats_.rejected_overloaded;
      Response response;
      response.outcome = Outcome::kOverloaded;
      response.retry_after_ms = RetryAfterMsLocked();
      return response;
    }
    auto request = std::make_unique<PendingRequest>();
    request->query = std::move(query);
    // The deadline starts at admission: time spent waiting in the queue
    // counts against the request, so a stale queued request is cancelled
    // by its worker instead of scanning the database pointlessly.
    request->deadline = Deadline::AfterSeconds(timeout);
    request->limit = options.limit;
    request->sink = options.sink;
    // Pin the snapshot here, under the same mutex mutations publish under:
    // the version, the cache mutation sequence, and the cache epoch are
    // one consistent instant — a mutation either fully precedes this pin
    // (its cache purge included) or fully follows it.
    request->version = versioned_db_.Current();
    request->pinned_seq = cache_->mutation_seq();
    request->pinned_epoch = cache_->epoch();
    // Cost estimation is O(|E(q)|) against in-memory label statistics,
    // cheap enough to run at admission under the lock. Mutations refresh
    // the statistics incrementally, so the estimate tracks the live
    // database.
    request->cost = cost_model_.Estimate(request->query, options.limit);
    request->heavy = request->cost >= config_.sched_heavy_threshold;
    request->admitted_at = std::chrono::steady_clock::now();
    future = request->promise.get_future();
    queue_.push_back(std::move(request));
    ++stats_.admitted;
    stats_.queue_peak =
        std::max<uint64_t>(stats_.queue_peak, queue_.size());
  }
  work_cv_.notify_one();
  return future.get();
}

QueryService::Response QueryService::Execute(Graph query,
                                             double timeout_seconds) {
  ExecuteOptions options;
  options.timeout_seconds = timeout_seconds;
  return Execute(std::move(query), options);
}

std::unique_ptr<QueryService::PendingRequest> QueryService::PopNextLocked() {
  size_t pick = 0;
  if (sjf_ && queue_.size() > 1) {
    // Anti-starvation aging: once the oldest request has waited past the
    // threshold it is served FIFO regardless of class — a heavy query can
    // be deferred, never starved.
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - queue_.front()->admitted_at)
            .count();
    if (waited_ms >= config_.sched_aging_ms) {
      ++stats_.sched_aged;
    } else {
      // Two-class SJF: cheapest cheap request first; heavy runs only when
      // no cheap request waits. Strict < keeps the scan stable (earliest
      // arrival wins ties).
      const size_t none = queue_.size();
      size_t best_cheap = none;
      size_t best_heavy = none;
      for (size_t i = 0; i < queue_.size(); ++i) {
        const PendingRequest& r = *queue_[i];
        size_t& best = r.heavy ? best_heavy : best_cheap;
        if (best == none || r.cost < queue_[best]->cost) best = i;
      }
      pick = best_cheap != none ? best_cheap : best_heavy;
    }
  }
  std::unique_ptr<PendingRequest> request = std::move(queue_[pick]);
  queue_.erase(queue_.begin() + pick);
  return request;
}

uint64_t QueryService::RetryAfterMsLocked() const {
  if (ewma_latency_ms_ <= 0) return 0;
  const double workers = std::max(1u, config_.workers);
  const double estimate =
      (static_cast<double>(queue_.size()) / workers + 1.0) * ewma_latency_ms_;
  return static_cast<uint64_t>(std::min(30000.0, std::max(1.0, estimate)));
}

bool QueryService::SyncWorkerEngine(
    uint32_t worker_id, const std::shared_ptr<const DbVersion>& target) {
  std::shared_ptr<const DbVersion>& at = engine_versions_[worker_id];
  if (at != nullptr && at->epoch == target->epoch) return true;
  QueryEngine* engine = engines_[worker_id].get();
  const Deadline build_deadline =
      Deadline::AfterSeconds(config_.build_timeout_seconds);
  bool ok = false;
  bool incremental = false;
  if (at != nullptr && at->epoch < target->epoch) {
    // Forward move: replay the recorded delta chain through the engine's
    // incremental maintenance path. The ring refuses ranges it no longer
    // covers (or that a Publish() cut), in which case we rebuild.
    std::vector<DbDelta> deltas;
    if (versioned_db_.DeltasSince(at->epoch, target->epoch, &deltas)) {
      ok = engine->ApplyUpdate(target->db, deltas, build_deadline);
      incremental = ok;
    }
  }
  if (!ok) ok = engine->Prepare(target->db, build_deadline);
  // Dropping the old version pointer here (possibly the last reference to
  // that snapshot's COW storage) and bumping the sync counters.
  at = ok ? target : nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (incremental) {
      ++stats_.engine_incremental_syncs;
    } else if (ok) {
      ++stats_.engine_full_rebuilds;
    } else {
      ++stats_.engine_sync_failures;
    }
  }
  return ok;
}

void QueryService::WorkerLoop(uint32_t worker_id) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;  // drained: admitted work all answered
      continue;
    }
    std::unique_ptr<PendingRequest> request = PopNextLocked();
    ++running_;
    lock.unlock();

    Response response;
    response.db_epoch = request->version->epoch;
    bool executed = false;
    bool shared = false;
    if (request->deadline.Expired()) {
      // Cancelled in the queue: the deadline passed before a worker was
      // free. Report the OOT outcome without touching the database.
      response.outcome = Outcome::kTimeout;
      response.result.stats.timed_out = true;
    } else if (!SyncWorkerEngine(worker_id, request->version)) {
      // The engine could not reach the pinned version within the build
      // budget — the same OOT surface a failed Prepare has always had,
      // scoped to this worker; the next request retries the sync.
      response.outcome = Outcome::kTimeout;
      response.result.stats.timed_out = true;
    } else {
      response =
          Serve(engines_[worker_id].get(), *request, &executed, &shared);
    }
    const double latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - request->admitted_at)
            .count();

    lock.lock();
    --running_;
    if (response.outcome == Outcome::kOk) {
      ++stats_.completed_ok;
    } else {
      ++stats_.completed_timeout;
    }
    (request->heavy ? stats_.sched_heavy : stats_.sched_cheap)
        .Record(latency_ms);
    ewma_latency_ms_ = ewma_latency_ms_ <= 0
                           ? latency_ms
                           : 0.8 * ewma_latency_ms_ + 0.2 * latency_ms;
    stats_.answers_total += response.result.answers.size();
    if (executed) {
      // Phase-time and kernel totals describe work actually performed;
      // cache hits and singleflight followers replay a result whose cost
      // was already booked by the execution that produced it.
      ++stats_.engine_executions;
      stats_.filtering_ms_total += response.result.stats.filtering_ms;
      stats_.verification_ms_total += response.result.stats.verification_ms;
      stats_.intersect_calls_total += response.result.stats.intersect_calls;
      stats_.local_candidates_total += response.result.stats.local_candidates;
    }
    if (shared) ++singleflight_shared_;
    lock.unlock();
    // The request's version pin is released with the request below; a
    // superseded snapshot's storage is freed as the last pin drops.
    // Counters are updated before the promise resolves, so a client that
    // sees its response and then asks for STATS observes itself counted.
    request->promise.set_value(std::move(response));
    request.reset();
    lock.lock();
  }
}

QueryService::Response QueryService::Serve(QueryEngine* engine,
                                           const PendingRequest& req,
                                           bool* executed, bool* shared) {
  Response response;
  const DbVersion& version = *req.version;
  response.db_epoch = version.epoch;
  // Engine executions emit local ids: translate for the streaming sink as
  // answers are confirmed, and rewrite the batched answer vector right
  // after the scan — so everything downstream of this function (the cache,
  // singleflight followers, the client) sees global ids only.
  WorkerSink worker_sink(req.sink, &version, req.limit);
  ResultSink* sink =
      (req.sink != nullptr || req.limit > 0) ? &worker_sink : nullptr;
  const auto execute = [&] {
    if (config_.pre_execute_hook) config_.pre_execute_hook(req.query);
    response.result = sink != nullptr
                          ? engine->Query(req.query, req.deadline, sink)
                          : engine->Query(req.query, req.deadline);
    for (GraphId& id : response.result.answers) {
      id = version.GlobalOf(id);
    }
    *executed = true;
  };
  if (!cache_->enabled()) {
    execute();
    response.outcome = response.result.stats.timed_out ? Outcome::kTimeout
                                                       : Outcome::kOk;
    return response;
  }

  // The cache key uses the epoch pinned at admission: a result computed
  // here is keyed to the database generation it ran against, so a request
  // racing a RELOAD populates the old generation's (unreachable) namespace,
  // never the new one's. Within a generation, the pinned mutation sequence
  // gates both lookup and insert (see cache/result_cache.h).
  CacheKey key;
  key.epoch = req.pinned_epoch;
  key.engine = config_.engine_name;
  key.hash = Canonicalize(req.query).hash;

  QueryResult cached;
  if (cache_->Lookup(key, req.pinned_seq, &cached)) {
    response.outcome = Outcome::kOk;  // only completed results are stored
    response.result = std::move(cached);
    // A cached result is the *full* answer set in global ids; streaming or
    // limited requests consume it by prefix replay through a sink that
    // forwards ids untranslated.
    if (sink != nullptr) {
      WorkerSink replay_sink(req.sink, nullptr, req.limit);
      ReplayThroughSink(&replay_sink, &response.result);
    }
    return response;
  }

  if (sink != nullptr) {
    // Streamed/limited executions may stop early, so their result can be
    // a prefix of the full answer set: never insert it into the cache,
    // and never let other requests adopt it through singleflight.
    execute();
    response.outcome = response.result.stats.timed_out ? Outcome::kTimeout
                                                       : Outcome::kOk;
    return response;
  }

  const GraphFeatures query_features = GraphFeaturesOf(req.query);
  // Singleflight keys on the *version* epoch (monotone across mutations
  // and reloads), not the cache epoch: two requests may only share one
  // execution when they pinned the same snapshot. Same version epoch also
  // implies the same pinned sequence — pins and publishes serialize on the
  // admission mutex — so follower adoption and cache inserts stay
  // consistent.
  CacheKey flight_key = key;
  flight_key.epoch = version.epoch;
  const SingleFlight::Ticket ticket = singleflight_.Join(flight_key);
  if (ticket.leader) {
    execute();
    if (!response.result.stats.timed_out) {
      cache_->Insert(key, response.result, req.pinned_seq, query_features);
    }
    // Publish even a TIMEOUT: followers whose own deadline also lapsed
    // adopt it (below), the rest re-execute with their remaining budget.
    singleflight_.Publish(ticket, response.result);
  } else {
    QueryResult leader_result;
    if (singleflight_.Wait(ticket, req.deadline, &leader_result)) {
      if (!leader_result.stats.timed_out || req.deadline.Expired()) {
        response.result = std::move(leader_result);
        *shared = true;
      } else {
        // The leader ran out of *its* deadline but ours still has room:
        // a shorter-budget request must not clip a longer-budget one.
        execute();
        if (!response.result.stats.timed_out) {
          cache_->Insert(key, response.result, req.pinned_seq,
                         query_features);
        }
      }
    } else if (!req.deadline.Expired()) {
      // Leader aborted (shutdown teardown) with our budget left.
      execute();
      if (!response.result.stats.timed_out) {
        cache_->Insert(key, response.result, req.pinned_seq, query_features);
      }
    } else {
      // Our own deadline passed while waiting on the leader.
      response.result.stats.timed_out = true;
    }
  }
  response.outcome = response.result.stats.timed_out ? Outcome::kTimeout
                                                     : Outcome::kOk;
  return response;
}

QueryService::MutationResult QueryService::AddGraph(
    Graph graph, const GraphId* forced_global_id) {
  MutationResult result;
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || stopping_) {
    result.error = "service not running";
    return result;
  }
  // The incoming graph gets the same candidate-index policy a loaded graph
  // would, before any engine or query can see it.
  MaybeAttachCandidateIndex(&graph,
                            config_.engine.candidate_index_min_vertices);
  const GraphFeatures features = GraphFeaturesOf(graph);
  std::string error;
  const std::shared_ptr<const DbVersion> version = versioned_db_.ApplyAdd(
      std::move(graph), forced_global_id, &result.global_id, &error);
  if (version == nullptr) {
    ++stats_.mutation_failures;
    result.error = std::move(error);
    return result;
  }
  // Refresh the SJF statistics from the appended graph (it lives at the
  // last local slot of the new version).
  if (cost_model_.built()) {
    cost_model_.AddGraph(version->db.graph(version->db.size() - 1));
    ++stats_.cost_model_refreshes;
  } else {
    ++stats_.cost_model_stale;
  }
  // Selective invalidation, completed before this mutex is released: no
  // reader can pin the new sequence until the purge has run (see
  // cache/result_cache.h for why that ordering is load-bearing).
  cache_->ApplyAdd(features);
  ++stats_.mutations_add;
  if (running_ > 0) ++stats_.mutations_during_queries;
  stats_.db_graphs = version->db.size();
  result.ok = true;
  result.db_epoch = version->epoch;
  return result;
}

QueryService::MutationResult QueryService::RemoveGraph(GraphId global_id) {
  MutationResult result;
  result.global_id = global_id;
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || stopping_) {
    result.error = "service not running";
    return result;
  }
  // Copy the doomed graph out (COW — refcount bumps) before the new
  // version drops it: the cost model needs its labels to subtract.
  const std::shared_ptr<const DbVersion> current = versioned_db_.Current();
  GraphId local = 0;
  Graph removed;
  if (current->FindLocal(global_id, &local)) removed = current->db.graph(local);
  std::string error;
  const std::shared_ptr<const DbVersion> version =
      versioned_db_.ApplyRemove(global_id, &error);
  if (version == nullptr) {
    ++stats_.mutation_failures;
    result.error = std::move(error);
    return result;
  }
  if (cost_model_.built()) {
    cost_model_.RemoveGraph(removed);
    ++stats_.cost_model_refreshes;
  } else {
    ++stats_.cost_model_stale;
  }
  cache_->ApplyRemove(global_id);
  ++stats_.mutations_remove;
  if (running_ > 0) ++stats_.mutations_during_queries;
  stats_.db_graphs = version->db.size();
  result.ok = true;
  result.db_epoch = version->epoch;
  return result;
}

bool QueryService::Reload(GraphDatabase db, std::string* error) {
  return Reload(std::move(db), {}, error);
}

bool QueryService::Reload(GraphDatabase db, std::vector<GraphId> global_ids,
                          std::string* error) {
  if (!global_ids.empty() && global_ids.size() != db.size()) {
    *error = "global id map covers " + std::to_string(global_ids.size()) +
             " graphs, database has " + std::to_string(db.size());
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || stopping_) {
    *error = "service not running";
    return false;
  }
  AttachCandidateIndexes(&db, config_.engine.candidate_index_min_vertices);
  cost_model_.Build(db);
  // Publish the swap as one more version transition. Nothing drains:
  // in-flight and queued requests finish against their pinned snapshots,
  // requests admitted after this block see the new database. The publish
  // cuts the delta history, so every worker's next sync is a full Prepare.
  const std::shared_ptr<const DbVersion> version =
      versioned_db_.Publish(std::move(db), std::move(global_ids));
  // The old database's results are all stale — advancing the cache epoch
  // makes them unreachable in O(1). Requests that pinned the old epoch
  // keep hitting (and harmlessly populating) the old namespace.
  cache_->AdvanceEpoch();
  ++stats_.reloads;
  stats_.db_graphs = version->db.size();
  return true;
}

void QueryService::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers) worker.join();
}

void QueryService::CountBadRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.bad_requests;
}

void QueryService::CacheClear() { cache_->Clear(); }

ServiceStatsSnapshot QueryService::Stats() const {
  ServiceStatsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
    snapshot.queue_depth = queue_.size();
    snapshot.in_flight = running_;
    snapshot.cache.singleflight_shared = singleflight_shared_;
  }
  const std::shared_ptr<const DbVersion> current = versioned_db_.Current();
  if (current != nullptr) {
    snapshot.db_epoch = current->epoch;
    snapshot.next_global_id = current->next_global_id;
    snapshot.db_graphs = current->db.size();
  }
  // Cache counters are internally synchronized; read them outside mu_.
  const uint64_t shared = snapshot.cache.singleflight_shared;
  snapshot.cache = cache_->Stats();
  snapshot.cache.singleflight_shared = shared;
  snapshot.cache.singleflight_waiting = singleflight_.waiting();
  return snapshot;
}

}  // namespace sgq
