// The scatter-gather executor behind sgq_router: fans one client request
// out to every shard over pooled connections, gathers the per-shard
// replies, and merges them into the answer a single unsharded server would
// have produced.
//
// Merge contract (kept in lockstep with router/shard_map.h):
//   * Shards partition the database, and shard servers report answers
//     under global ids — so the per-shard answer sets are disjoint and
//     their sorted union IS the unsharded answer set.
//   * LIMIT k is forwarded to every shard (each shard's k smallest global
//     ids are a superset of its contribution to the global top-k) and
//     re-applied after the merge, so the result is bit-identical to an
//     unsharded LIMIT k.
//   * Stats: pure counters are summed; filtering_ms/verification_ms take
//     the max across shards (the shards run in parallel, so the slowest
//     one is the wall-clock estimate — the convention of query/stats.h);
//     timed_out ORs.
//
// Partial failures follow an explicit policy: kError turns any shard
// failure into an OVERLOADED response (the client retries against a
// healthy fleet), kDegraded merges the surviving shards and reports
// shards_ok < shards_total in the stats json. A shard that answers
// OVERLOADED propagates as OVERLOADED under either policy — that is
// backpressure, not death, and silently dropping its graphs would turn a
// retryable condition into missing data.
#ifndef SGQ_ROUTER_SCATTER_GATHER_H_
#define SGQ_ROUTER_SCATTER_GATHER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "query/result_sink.h"
#include "router/shard_client.h"
#include "service/protocol.h"
#include "util/deadline.h"

namespace sgq {

enum class ShardFailurePolicy {
  kError,     // any shard failure fails the whole request
  kDegraded,  // merge survivors, flag shards_ok < shards_total
};

// "error" | "degraded".
bool ParseShardFailurePolicy(std::string_view text, ShardFailurePolicy* policy);
const char* ToString(ShardFailurePolicy policy);

struct RouterConfig {
  std::vector<ShardEndpoint> shards;  // element i serves shard i/N
  ShardFailurePolicy on_shard_failure = ShardFailurePolicy::kError;
  double default_timeout_seconds = 600;
  // Deadline for fan-out of the admin verbs (STATS / RELOAD / CACHE
  // CLEAR / SHUTDOWN); RELOAD re-prepares every engine, so this is far
  // looser than the query default.
  double admin_timeout_seconds = 3600;
  bool forward_shutdown = true;  // SHUTDOWN also shuts the shards down
};

// One shard's contribution to a query, as gathered off the wire.
struct ShardQueryReply {
  bool ok = false;          // well-formed OK/TIMEOUT with a matching IDS line
  bool overloaded = false;  // shard said OVERLOADED (only when !ok)
  bool timed_out = false;   // shard said TIMEOUT
  QueryStats stats;         // parsed stats json (ok replies only)
  std::vector<GraphId> ids;
  std::string error;        // failure detail (only when !ok)
};

// A merged query outcome, ready for response formatting.
struct MergedQuery {
  bool ok = false;      // false: respond OVERLOADED with `detail`
  std::string detail;
  QueryResult result;   // merged answers + stats; limit already applied
  ShardHealth shards;
};

// Pure merge step, exposed for router_test: combines the shard replies
// under `policy`, applying `limit` post-merge. Deterministic in the reply
// *contents* — the order replies arrive in never changes the output.
MergedQuery MergeShardResults(const std::vector<ShardQueryReply>& replies,
                              ShardFailurePolicy policy, uint64_t limit);

struct RouterStatsSnapshot {
  uint64_t received = 0;         // QUERY requests fanned out
  uint64_t merged_ok = 0;
  uint64_t merged_timeout = 0;
  uint64_t failed = 0;           // OVERLOADED responses (policy/overload)
  uint64_t degraded = 0;         // merged with shards_ok < shards_total
  uint64_t shard_failures = 0;   // individual failed shard exchanges
  uint64_t retries = 0;          // stale pooled connection, retried fresh
  uint32_t shards_total = 0;

  std::string ToJson() const;
};

// Thread-safe: any number of router connection threads may call Query()
// and Broadcast() concurrently; each fan-out uses one thread per shard
// (ForEachShard).
class ScatterGather {
 public:
  explicit ScatterGather(RouterConfig config);

  // Fans `graph_text` out as `QUERY <len> <timeout> [LIMIT k] IDS` to all
  // shards and merges. `timeout_seconds <= 0` uses the config default;
  // the remaining budget at each send is what a shard sees, so a dead
  // shard consumes deadline, never hangs the router.
  //
  // With a `sink` the shards are queried with STREAM instead, and the
  // merged ascending global-id sequence is pushed to the sink
  // incrementally — an id is forwarded as soon as every shard that could
  // still produce a smaller id has streamed past it (shard streams are
  // ascending and disjoint, so the k-way merge of the chunk fronts is
  // exactly the sorted union). With limit > 0 only the first `limit`
  // merged ids reach the sink (the post-merge LIMIT cut; each shard is
  // also sent LIMIT k, bounding its stream). The returned MergedQuery is
  // the same either way for the same replies. On a mid-stream shard
  // failure ids may already have been forwarded — the caller must signal
  // the failure in its terminal line rather than pretend the prefix is
  // complete.
  MergedQuery Query(const std::string& graph_text, double timeout_seconds,
                    uint64_t limit, ResultSink* sink = nullptr);

  struct BroadcastReply {
    bool ok = false;    // got a response line
    std::string line;   // the shard's response line (when ok)
    std::string error;  // failure detail (when !ok)
  };

  // Sends one command line (newline appended here) to every shard and
  // collects one response line each, within admin_timeout_seconds.
  std::vector<BroadcastReply> Broadcast(const std::string& command_line);

  // Targeted exchange with one shard (live mutations route to the graph's
  // splitmix64 owner, not the fleet): sends `request` verbatim — the caller
  // includes the newline and any length-prefixed payload — and reads one
  // response line, within admin_timeout_seconds. The one-retry rule for
  // stale pooled sockets applies; ADD/REMOVE are idempotent in effect
  // (re-adding under the same forced id fails id-monotonicity, re-removing
  // reports the graph gone), so a duplicate delivery cannot double-apply.
  BroadcastReply SendToShard(size_t shard, const std::string& request);

  RouterStatsSnapshot Stats() const;

  const RouterConfig& config() const { return config_; }

 private:
  // Runs `per_shard(i)` for every shard i, one thread per shard, while the
  // calling thread runs `meanwhile` (when set); returns once all are done.
  void ForEachShard(const std::function<void(size_t)>& per_shard,
                    const std::function<void()>& meanwhile = nullptr);

  // One complete exchange with `shard` over a pooled connection: checkout,
  // connect, send, then let `read` consume the response lines; checked in
  // afterwards only if everything succeeded. When a *reused* pooled socket
  // fails (the shard restarted between requests), retries once from a
  // fresh connection — all the verbs we send are idempotent — unless
  // `may_retry` says the failed attempt already had visible effects.
  bool WithConnection(
      size_t shard, const std::string& request,
      const std::function<bool(ShardConnection*, std::string*)>& read,
      std::string* error, const std::function<bool()>& may_retry = nullptr);

  // Per-fan-out state of the incremental merge (defined in the .cc).
  struct StreamMerge;

  // One shard's QUERY exchange. Batch (`merge` null): the OK/TIMEOUT head
  // plus its IDS line. Streaming: each IDS chunk line is appended to the
  // reply *and* pushed into `merge` as it arrives, until the terminal
  // OK/TIMEOUT line; a stale pooled socket is retried only while no chunk
  // has been pushed — once ids entered the merge they may have been
  // forwarded to the client, so a later failure is final.
  ShardQueryReply QueryShard(size_t shard, const std::string& request,
                             Deadline deadline, StreamMerge* merge);

  const RouterConfig config_;
  ShardConnectionPool pool_;

  mutable std::mutex stats_mu_;
  RouterStatsSnapshot stats_;
};

}  // namespace sgq

#endif  // SGQ_ROUTER_SCATTER_GATHER_H_
