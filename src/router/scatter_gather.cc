#include "router/scatter_gather.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>

namespace sgq {

bool ParseShardFailurePolicy(std::string_view text,
                             ShardFailurePolicy* policy) {
  if (text == "error") {
    *policy = ShardFailurePolicy::kError;
    return true;
  }
  if (text == "degraded") {
    *policy = ShardFailurePolicy::kDegraded;
    return true;
  }
  return false;
}

const char* ToString(ShardFailurePolicy policy) {
  return policy == ShardFailurePolicy::kError ? "error" : "degraded";
}

std::string RouterStatsSnapshot::ToJson() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"received\":%llu,\"merged_ok\":%llu,\"merged_timeout\":%llu,"
      "\"failed\":%llu,\"degraded\":%llu,\"shard_failures\":%llu,"
      "\"retries\":%llu,\"shards_total\":%u}",
      static_cast<unsigned long long>(received),
      static_cast<unsigned long long>(merged_ok),
      static_cast<unsigned long long>(merged_timeout),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(shard_failures),
      static_cast<unsigned long long>(retries), shards_total);
  return buf;
}

MergedQuery MergeShardResults(const std::vector<ShardQueryReply>& replies,
                              ShardFailurePolicy policy, uint64_t limit) {
  MergedQuery merged;
  merged.shards.total = static_cast<uint32_t>(replies.size());

  // Backpressure first: a shard that rejected with OVERLOADED is alive and
  // will take the retry — degrading would drop its graphs for no reason.
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].ok && replies[i].overloaded) {
      merged.detail =
          "shard " + std::to_string(i) + " overloaded: " + replies[i].error;
      return merged;
    }
  }

  std::string first_failure;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].ok) {
      ++merged.shards.ok;
    } else if (first_failure.empty()) {
      first_failure =
          "shard " + std::to_string(i) + " failed: " + replies[i].error;
    }
  }
  if (merged.shards.ok < merged.shards.total &&
      policy == ShardFailurePolicy::kError) {
    merged.detail = first_failure;
    return merged;
  }
  if (merged.shards.ok == 0) {
    merged.detail = replies.empty() ? "no shards configured" : first_failure;
    return merged;
  }

  QueryResult& out = merged.result;
  for (const ShardQueryReply& reply : replies) {
    if (!reply.ok) continue;
    out.answers.insert(out.answers.end(), reply.ids.begin(),
                       reply.ids.end());
    const QueryStats& s = reply.stats;
    // Phase times are per-shard wall clock and the shards ran in parallel:
    // the slowest shard is the fan-out's wall-clock estimate (the
    // convention of query/stats.h). Everything countable sums.
    out.stats.filtering_ms = std::max(out.stats.filtering_ms, s.filtering_ms);
    out.stats.verification_ms =
        std::max(out.stats.verification_ms, s.verification_ms);
    out.stats.num_candidates += s.num_candidates;
    out.stats.si_tests += s.si_tests;
    out.stats.timed_out |= s.timed_out;
    out.stats.aux_memory_bytes += s.aux_memory_bytes;
    out.stats.ws_filter_hits += s.ws_filter_hits;
    out.stats.ws_filter_misses += s.ws_filter_misses;
    out.stats.intersect_calls += s.intersect_calls;
    out.stats.intersect_merge += s.intersect_merge;
    out.stats.intersect_gallop += s.intersect_gallop;
    out.stats.intersect_simd += s.intersect_simd;
    out.stats.local_candidates += s.local_candidates;
    out.stats.tasks_spawned += s.tasks_spawned;
    out.stats.tasks_stolen += s.tasks_stolen;
    out.stats.tasks_aborted += s.tasks_aborted;
  }
  // Shards partition the database, so the id sets are disjoint — a plain
  // sort rebuilds the unsharded ascending order, independent of which
  // shard answered first.
  std::sort(out.answers.begin(), out.answers.end());
  out.stats.num_answers = out.answers.size();
  ApplyAnswerLimit(&out, limit);
  merged.ok = true;
  return merged;
}

ScatterGather::ScatterGather(RouterConfig config)
    : config_(std::move(config)), pool_(config_.shards) {
  stats_.shards_total = static_cast<uint32_t>(config_.shards.size());
}

void ScatterGather::ForEachShard(
    const std::function<void(size_t)>& per_shard,
    const std::function<void()>& meanwhile) {
  std::vector<std::thread> threads;
  threads.reserve(config_.shards.size());
  for (size_t shard = 0; shard < config_.shards.size(); ++shard) {
    threads.emplace_back(std::cref(per_shard), shard);
  }
  if (meanwhile) meanwhile();
  for (std::thread& thread : threads) thread.join();
}

bool ScatterGather::WithConnection(
    size_t shard, const std::string& request,
    const std::function<bool(ShardConnection*, std::string*)>& read,
    std::string* error, const std::function<bool()>& may_retry) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::unique_ptr<ShardConnection> connection =
        attempt == 0 ? pool_.Checkout(shard)
                     : std::make_unique<ShardConnection>(
                           pool_.endpoint(shard));
    if (!connection->Connect(error)) return false;  // fresh dial failed
    const bool reused = connection->reused();
    if (connection->Send(request, error) && read(connection.get(), error)) {
      pool_.CheckIn(shard, std::move(connection));
      return true;
    }
    // A reused pooled socket may simply have gone stale (shard restarted
    // between requests); one fresh attempt distinguishes that from a down
    // shard. Fresh-connection failures are final.
    if (!reused || (may_retry && !may_retry())) return false;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.retries;
  }
  return false;
}

// Shared between the per-shard reader threads (producers) and the calling
// thread (the merger): per-shard ascending id queues plus a done flag each.
// An id is safe to forward once every not-done shard has a buffered id —
// the smallest front is then the global minimum of everything still to come.
struct ScatterGather::StreamMerge {
  explicit StreamMerge(size_t shards) : pending(shards), done(shards, 0) {}

  void Push(size_t shard, std::span<const GraphId> ids) {
    {
      std::lock_guard<std::mutex> lock(mu);
      pending[shard].insert(pending[shard].end(), ids.begin(), ids.end());
    }
    cv.notify_all();
  }

  void Finish(size_t shard, bool ok) {
    {
      std::lock_guard<std::mutex> lock(mu);
      // A failed shard's reply is excluded from the merged result, so drop
      // whatever it streamed but the merger has not forwarded yet
      // (already-forwarded ids cannot be recalled — the caller's terminal
      // line carries the failure).
      if (!ok) pending[shard].clear();
      done[shard] = 1;
    }
    cv.notify_all();
  }

  // The merger, on the calling thread: repeatedly drains every id that is
  // already order-safe into a batch, forwards the batch without holding
  // the merge lock (the sink writes to a socket), and sleeps only when
  // some not-done shard has an empty buffer. A shard with no answers sends
  // nothing until its terminal line, so time-to-first-forwarded-id is
  // bounded by the slowest shard's first flush — the price of strict
  // global ordering. Returns once every shard is done and drained.
  void Forward(uint64_t limit, ResultSink* sink) {
    const size_t num_shards = pending.size();
    uint64_t emitted = 0;
    bool sink_open = true;
    std::vector<GraphId> batch;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      batch.clear();
      bool blocked = false;
      for (;;) {
        size_t best = num_shards;
        blocked = false;
        for (size_t i = 0; i < num_shards; ++i) {
          if (!pending[i].empty()) {
            if (best == num_shards ||
                pending[i].front() < pending[best].front()) {
              best = i;
            }
          } else if (!done[i]) {
            blocked = true;
            break;
          }
        }
        if (blocked || best == num_shards) break;
        batch.push_back(pending[best].front());
        pending[best].pop_front();
      }
      if (!batch.empty()) {
        lock.unlock();
        for (const GraphId id : batch) {
          if (!sink_open || (limit > 0 && emitted >= limit)) break;
          ++emitted;
          if (!sink->OnAnswer(id)) sink_open = false;
        }
        sink->FlushHint();
        lock.lock();
        continue;
      }
      if (!blocked) return;  // every shard done and every buffer drained
      cv.wait(lock);
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::deque<GraphId>> pending;
  std::vector<char> done;
};

ShardQueryReply ScatterGather::QueryShard(size_t shard,
                                          const std::string& request,
                                          Deadline deadline,
                                          StreamMerge* merge) {
  ShardQueryReply reply;
  bool streamed_any = false;
  const auto read = [&](ShardConnection* connection, std::string* error) {
    reply.ids.clear();
    std::string line;
    for (;;) {
      if (!connection->ReadLine(deadline, &line, error)) return false;
      if (merge == nullptr || line.rfind("IDS", 0) != 0) break;
      const size_t before = reply.ids.size();
      if (!ParseIdsChunk(line, &reply.ids)) {
        *error = "bad IDS chunk: " + line;
        return false;
      }
      if (reply.ids.size() > before) {
        streamed_any = true;
        merge->Push(shard,
                    std::span<const GraphId>(reply.ids).subspan(before));
      }
    }
    const ResponseHead head = ParseResponseHead(line);
    switch (head.kind) {
      case ResponseHead::Kind::kOk:
      case ResponseHead::Kind::kTimeout:
        break;
      case ResponseHead::Kind::kOverloaded:
        reply.overloaded = true;
        *error = head.body.empty() ? "(no detail)" : head.body;
        return false;
      case ResponseHead::Kind::kBadRequest:
        // An old server rejecting the LIMIT/IDS/STREAM grammar lands here;
        // the message makes the version mismatch visible instead of a
        // desync.
        *error = "shard rejected request: " + head.body;
        return false;
      default:
        *error = "malformed shard response: " + line;
        return false;
    }
    if (!head.has_count) {
      *error = "query response without answer count: " + line;
      return false;
    }
    if (!ParseQueryStatsJson(head.body, &reply.stats)) {
      *error = "unparseable shard stats: " + head.body;
      return false;
    }
    if (merge != nullptr) {
      if (head.num_answers != reply.ids.size()) {
        *error = "streamed " + std::to_string(reply.ids.size()) +
                 " ids but terminal line reported " +
                 std::to_string(head.num_answers);
        return false;
      }
    } else {
      std::string ids_line;
      if (!connection->ReadLine(deadline, &ids_line, error)) return false;
      if (!ParseIdsLine(ids_line, head.num_answers, &reply.ids)) {
        *error = "bad IDS line (expected " +
                 std::to_string(head.num_answers) + " ids): " + ids_line;
        return false;
      }
    }
    reply.timed_out = head.kind == ResponseHead::Kind::kTimeout;
    return true;
  };
  // A streaming retry would replay already-merged (possibly already
  // client-visible) ids, so a stale socket is retried only while nothing
  // has been pushed to the merge.
  std::string error;
  reply.ok = WithConnection(shard, request, read, &error,
                            [&] { return !streamed_any; });
  if (!reply.ok) {
    reply.error = error.empty()
                      ? pool_.endpoint(shard).ToString() + ": failed"
                      : error;
  }
  return reply;
}

MergedQuery ScatterGather::Query(const std::string& graph_text,
                                 double timeout_seconds, uint64_t limit,
                                 ResultSink* sink) {
  const double timeout = timeout_seconds > 0
                             ? timeout_seconds
                             : config_.default_timeout_seconds;
  // The deadline covers the whole fan-out; each shard is told the budget
  // remaining when its request is built, so a silent shard costs deadline,
  // not a hang.
  const Deadline deadline = Deadline::AfterSeconds(timeout);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.received;
  }

  const size_t num_shards = config_.shards.size();
  const char* framing = sink != nullptr ? "STREAM" : "IDS";
  std::unique_ptr<StreamMerge> merge;
  if (sink != nullptr) merge = std::make_unique<StreamMerge>(num_shards);
  std::vector<ShardQueryReply> replies(num_shards);
  const auto per_shard = [&](size_t shard) {
    const double remaining = std::max(0.001, deadline.SecondsRemaining());
    char header[128];
    const int header_len =
        limit > 0 ? std::snprintf(header, sizeof(header),
                                  "QUERY %zu %.3f LIMIT %llu %s\n",
                                  graph_text.size(), remaining,
                                  static_cast<unsigned long long>(limit),
                                  framing)
                  : std::snprintf(header, sizeof(header),
                                  "QUERY %zu %.3f %s\n", graph_text.size(),
                                  remaining, framing);
    std::string request(header, static_cast<size_t>(header_len));
    request += graph_text;
    replies[shard] = QueryShard(shard, request, deadline, merge.get());
    if (merge) merge->Finish(shard, replies[shard].ok);
  };
  ForEachShard(per_shard, [&] {
    if (merge) merge->Forward(limit, sink);
  });

  MergedQuery merged =
      MergeShardResults(replies, config_.on_shard_failure, limit);
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const ShardQueryReply& reply : replies) {
    if (!reply.ok) ++stats_.shard_failures;
  }
  if (!merged.ok) {
    ++stats_.failed;
  } else {
    if (merged.result.stats.timed_out) {
      ++stats_.merged_timeout;
    } else {
      ++stats_.merged_ok;
    }
    if (merged.shards.ok < merged.shards.total) ++stats_.degraded;
  }
  return merged;
}

std::vector<ScatterGather::BroadcastReply> ScatterGather::Broadcast(
    const std::string& command_line) {
  std::vector<BroadcastReply> replies(config_.shards.size());
  const std::string request = command_line + "\n";
  ForEachShard([&](size_t shard) {
    replies[shard] = SendToShard(shard, request);
  });
  return replies;
}

ScatterGather::BroadcastReply ScatterGather::SendToShard(
    size_t shard, const std::string& request) {
  const Deadline deadline =
      Deadline::AfterSeconds(config_.admin_timeout_seconds);
  BroadcastReply reply;
  const auto read = [&](ShardConnection* connection, std::string* error) {
    return connection->ReadLine(deadline, &reply.line, error);
  };
  reply.ok = WithConnection(shard, request, read, &reply.error);
  return reply;
}

RouterStatsSnapshot ScatterGather::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace sgq
