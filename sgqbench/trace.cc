// `sgqbench trace`: the per-layer breakdown. Replays the head of the run's
// request stream in this process, calling each layer's public function in
// the order a server (or the router and its shards) calls them, with a
// span around every call. Spans are kept in memory and written out when
// the replay ends; nothing inside the program is instrumented.
//
// Span tree of one query request (the per-shard spans repeat for every
// shard):
//
//   request
//     RequestParser            wire bytes -> Request -> Graph
//     CostModel::Estimate      admission cost estimate
//     Canonicalize             cache key
//     ResultCache::Lookup
//     QueryEngine::Query       on a cache miss
//     ResultCache::Insert      after a miss
//     QueryService::Execute    the same query through an in-process service
//     FormatQueryResponse
//
// ADD/REMOVE requests run QueryService::AddGraph/RemoveGraph on the owner
// shard's in-process service and the matching ResultCache invalidation.
// Set-up spans (request 0): LoadDatabase or LoadSnapshot,
// VertexCandidateIndex::Build, QueryEngine::Prepare, QueryService::Start.
//
// A routed deployment is also replayed against its live shards, twice, each
// time from cleared shard caches and with the ADD/REMOVE requests sent
// through the live router, so that every shard sees the run's sequence of
// cache misses, hits and invalidations:
//
//   ScatterGather::Query       the router's fan-out and merge
// then
//   shard.rtt                  one direct exchange per shard
//   MergeShardResults          merge of those replies
//
// The replay sends the stream's warm-up queries, then the head of its open
// loop. It runs twice on fresh state: untraced, then traced over the same
// requests. The difference in wall time of the in-process part is the
// tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>

#include "cache/canonical.h"
#include "cache/result_cache.h"
#include "common.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_io.h"
#include "index/vertex_candidate_index.h"
#include "query/engine_factory.h"
#include "router/scatter_gather.h"
#include "router/shard_client.h"
#include "router/shard_map.h"
#include "service/cost_model.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "util/defaults.h"

namespace sgqbench {
namespace {

using sgq::Graph;
using sgq::GraphDatabase;
using sgq::GraphId;

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = 0;
};

// Single-threaded span recorder; a disabled tracer reads no clocks.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, int32_t id) : tracer_(tracer), id_(id) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t id_;
  };

  [[nodiscard]] Scope Span(const char* name, int64_t request) {
    if (!enabled_) return Scope(nullptr, -1);
    SpanRecord span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return Scope(this, stack_.back());
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  void End(int32_t id) {
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
};

struct ReplayConfig {
  std::string dir;
  std::string engine = "CFQL";
  uint32_t workers = 2;
  std::string sched = "fifo";
  std::vector<sgq::ShardEndpoint> shard_endpoints;  // empty = direct
  sgq::ShardEndpoint router;                        // routed only
  double seconds = 2;
};

// One engine execution observed by the replay.
struct Execution {
  sgq::QueryStats stats;
  double engine_ms = 0;
  double estimate = 0;
};

// Everything one shard (or the single server) owns.
struct ShardState {
  GraphDatabase db;
  std::vector<GraphId> global_ids;  // empty = identity
  std::unique_ptr<sgq::QueryEngine> engine;
  sgq::CostModel cost;
  std::unique_ptr<sgq::ResultCache> cache;
  std::unique_ptr<sgq::QueryService> service;
};

struct ReplayResult {
  bool ok = true;
  std::string error;
  uint64_t requests = 0;
  uint64_t wrong = 0;
  double wall_s = 0;
  std::vector<Execution> executions;
  // Per replayed open-loop request: the unloaded time of the path the
  // front end serves it on (set-up spans excluded), by stream index.
  std::map<size_t, double> open_path_ms;
  double index_memory_bytes = 0;
  double cand_index_bytes = 0;
};

std::vector<uint32_t> BasePart(const std::vector<GraphId>& ids,
                               uint32_t base_graphs) {
  std::vector<uint32_t> base;
  for (const GraphId id : ids) {
    if (id < base_graphs) base.push_back(id);
  }
  std::sort(base.begin(), base.end());
  return base;
}

class Replay {
 public:
  Replay(const ReplayConfig& config, Tracer* tracer)
      : config_(config), tracer_(tracer) {}

  ReplayResult Run(const Stream& stream, uint64_t limit);

 private:
  bool Setup(std::string* error);
  void Query(const Op& op, int64_t request, ReplayResult* out);
  void Mutate(const Op& op, int64_t request);
  // One pass over `ops` against the live shards; `fan_out` selects the
  // router's ScatterGather::Query, otherwise direct per-shard exchanges.
  void LivePass(const std::vector<const Op*>& ops, bool fan_out,
                ReplayResult* out);
  void LiveMutate(const Op& op, ReplayResult* out);
  sgq::ShardQueryReply ShardExchange(size_t shard, const std::string& wire);

  const ReplayConfig& config_;
  Tracer* tracer_;
  uint32_t base_graphs_ = 0;
  std::vector<std::vector<uint32_t>> keys_;
  std::vector<ShardState> shards_;
  std::unique_ptr<sgq::ScatterGather> scatter_;
  std::vector<std::unique_ptr<sgq::ShardConnection>> rtt_links_;
  std::unique_ptr<sgq::ShardConnection> router_link_;
  std::map<uint32_t, GraphId> slot_gid_;
  std::map<uint32_t, GraphId> live_slot_gid_;
  size_t warm_count_ = 0;  // requests before the open loop's first
  GraphId next_gid_ = 0;
  ReplayResult* result_ = nullptr;
};

bool Replay::Setup(std::string* error) {
  if (!LoadIdLists(config_.dir + "/keys.txt", &keys_) ||
      !LoadBaseGraphs(config_.dir, &base_graphs_)) {
    *error = "bad keys or meta";
    return false;
  }
  next_gid_ = base_graphs_;
  GraphDatabase db;
  const std::string snapshot = config_.dir + "/db.csr";
  if (sgq::IsSnapshotFile(snapshot)) {
    auto span = tracer_->Span("LoadSnapshot", 0);
    if (!sgq::LoadSnapshot(snapshot, &db, error)) return false;
  } else {
    auto span = tracer_->Span("LoadDatabase", 0);
    if (!sgq::LoadDatabase(config_.dir + "/db.txt", &db, error)) return false;
  }
  for (GraphId g = 0; g < db.size(); ++g) {
    if (db.graph(g).NumVertices() < sgq::kDefaultCandidateIndexMinVertices) {
      continue;
    }
    std::shared_ptr<const sgq::VertexCandidateIndex> index;
    {
      auto span = tracer_->Span("VertexCandidateIndex::Build", 0);
      index = sgq::VertexCandidateIndex::Build(db.graph(g));
    }
    result_->cand_index_bytes += static_cast<double>(index->MemoryBytes());
    db.mutable_graph(g).SetCandidateIndex(std::move(index));
  }

  const uint32_t count = static_cast<uint32_t>(
      std::max<size_t>(1, config_.shard_endpoints.size()));
  shards_.resize(count);
  for (uint32_t s = 0; s < count; ++s) {
    ShardState& shard = shards_[s];
    shard.db = count > 1 ? sgq::FilterDatabaseToShard(db.Clone(), {s, count},
                                                      &shard.global_ids)
                         : db.Clone();
    shard.engine = sgq::MakeEngine(config_.engine);
    {
      auto span = tracer_->Span("QueryEngine::Prepare", 0);
      if (!shard.engine->Prepare(shard.db, sgq::Deadline::Infinite())) {
        *error = "engine prepare failed";
        return false;
      }
    }
    result_->index_memory_bytes +=
        static_cast<double>(shard.engine->IndexMemoryBytes());
    shard.cost.Build(shard.db);
    shard.cache = std::make_unique<sgq::ResultCache>(sgq::CacheConfig{});
    sgq::ServiceConfig service;
    service.engine_name = config_.engine;
    service.workers = config_.workers;
    service.sched = config_.sched;
    shard.service = std::make_unique<sgq::QueryService>(service);
    auto span = tracer_->Span("QueryService::Start", 0);
    if (!shard.service->Start(shard.db.Clone(), shard.global_ids, error)) {
      return false;
    }
  }
  if (!config_.shard_endpoints.empty()) {
    sgq::RouterConfig router;
    router.shards = config_.shard_endpoints;
    scatter_ = std::make_unique<sgq::ScatterGather>(router);
    for (const sgq::ShardEndpoint& endpoint : config_.shard_endpoints) {
      rtt_links_.push_back(std::make_unique<sgq::ShardConnection>(endpoint));
    }
    router_link_ = std::make_unique<sgq::ShardConnection>(config_.router);
  }
  return true;
}

sgq::ShardQueryReply Replay::ShardExchange(size_t shard,
                                           const std::string& wire) {
  sgq::ShardQueryReply reply;
  sgq::ShardConnection* link = rtt_links_[shard].get();
  const sgq::Deadline deadline =
      sgq::Deadline::AfterSeconds(kQueryTimeoutSeconds);
  std::string line, ids_line;
  if (!link->Connect(&reply.error) || !link->Send(wire, &reply.error) ||
      !link->ReadLine(deadline, &line, &reply.error)) {
    return reply;
  }
  const sgq::ResponseHead head = sgq::ParseResponseHead(line);
  if (head.kind != sgq::ResponseHead::Kind::kOk || !head.has_count ||
      !sgq::ParseQueryStatsJson(head.body, &reply.stats) ||
      !link->ReadLine(deadline, &ids_line, &reply.error) ||
      !sgq::ParseIdsLine(ids_line, head.num_answers, &reply.ids)) {
    reply.error = "bad shard reply: " + line;
    return reply;
  }
  reply.ok = true;
  return reply;
}

void Replay::Query(const Op& op, int64_t request, ReplayResult* out) {
  auto root = tracer_->Span("request", request);
  const int64_t start = NowNs();
  const std::string wire = QueryWire(op.payload);
  sgq::Request parsed;
  Graph query;
  {
    auto span = tracer_->Span("RequestParser", request);
    sgq::RequestParser parser;
    parser.Feed(wire);
    std::string error;
    if (parser.Next(&parsed, &error) != sgq::RequestParser::Status::kReady ||
        !sgq::ParseSingleGraph(parsed.graph_text, &query, &error)) {
      ++out->wrong;
      return;
    }
  }
  // Time of the path the front end serves the request on: parse, then the
  // slowest shard's layers (direct) or the live router (added by LivePass),
  // then format.
  double path_ns = static_cast<double>(NowNs() - start);
  const std::vector<uint32_t>& key = keys_[op.index];
  sgq::QueryResult front;
  std::vector<GraphId> mirror_answers, service_answers;
  for (ShardState& shard : shards_) {
    const int64_t t0 = NowNs();
    double estimate = 0;
    {
      auto span = tracer_->Span("CostModel::Estimate", request);
      estimate = shard.cost.Estimate(query);
    }
    sgq::CacheKey cache_key;
    sgq::QueryResult result;
    bool hit = false;
    const uint64_t pinned = shard.cache->mutation_seq();
    cache_key.engine = config_.engine;
    {
      auto span = tracer_->Span("Canonicalize", request);
      cache_key.hash = sgq::Canonicalize(query).hash;
    }
    {
      auto span = tracer_->Span("ResultCache::Lookup", request);
      hit = shard.cache->Lookup(cache_key, pinned, &result);
    }
    if (!hit) {
      const int64_t e0 = NowNs();
      {
        auto span = tracer_->Span("QueryEngine::Query", request);
        result = shard.engine->Query(query);
      }
      Execution execution;
      execution.stats = result.stats;
      execution.engine_ms = static_cast<double>(NowNs() - e0) / 1e6;
      execution.estimate = estimate;
      out->executions.push_back(execution);
      if (!shard.global_ids.empty()) {
        for (GraphId& id : result.answers) id = shard.global_ids[id];
      }
      auto span = tracer_->Span("ResultCache::Insert", request);
      shard.cache->Insert(cache_key, result, pinned,
                          sgq::GraphFeaturesOf(query));
    }
    if (scatter_ == nullptr) path_ns += static_cast<double>(NowNs() - t0);
    mirror_answers.insert(mirror_answers.end(), result.answers.begin(),
                          result.answers.end());
    if (scatter_ == nullptr) front = result;
    auto span = tracer_->Span("QueryService::Execute", request);
    const sgq::QueryService::Response response =
        shard.service->Execute(query, kQueryTimeoutSeconds);
    if (response.outcome != sgq::QueryService::Outcome::kOk) ++out->wrong;
    service_answers.insert(service_answers.end(),
                           response.result.answers.begin(),
                           response.result.answers.end());
  }
  if (BasePart(mirror_answers, base_graphs_) != key ||
      BasePart(service_answers, base_graphs_) != key) {
    ++out->wrong;
  }
  if (scatter_ != nullptr) {
    // The router formats the merge of the shards' answers.
    front.answers = mirror_answers;
    std::sort(front.answers.begin(), front.answers.end());
  }
  const int64_t f0 = NowNs();
  {
    auto span = tracer_->Span("FormatQueryResponse", request);
    sgq::ShardHealth health{static_cast<uint32_t>(shards_.size()),
                            static_cast<uint32_t>(shards_.size())};
    const std::string formatted = sgq::FormatQueryResponse(
        front, scatter_ != nullptr ? &health : nullptr, true);
    if (formatted.empty()) ++out->wrong;
  }
  path_ns += static_cast<double>(NowNs() - f0);
  if (static_cast<size_t>(request) > warm_count_) {
    out->open_path_ms[static_cast<size_t>(request) - 1 - warm_count_] =
        path_ns / 1e6;
  }
}

void Replay::Mutate(const Op& op, int64_t request) {
  auto root = tracer_->Span("request", request);
  Graph graph;
  {
    auto span = tracer_->Span("RequestParser", request);
    sgq::RequestParser parser;
    parser.Feed(op.kind == 'A' ? AddWire(op.payload) : RemoveWire(0));
    sgq::Request parsed;
    std::string error;
    if (parser.Next(&parsed, &error) != sgq::RequestParser::Status::kReady ||
        (op.kind == 'A' &&
         !sgq::ParseSingleGraph(parsed.graph_text, &graph, &error))) {
      return;
    }
  }
  const uint32_t count = static_cast<uint32_t>(shards_.size());
  if (op.kind == 'A') {
    const GraphId gid = next_gid_++;
    slot_gid_[op.slot] = gid;
    ShardState& owner = shards_[sgq::ShardOfGraph(gid, count)];
    const sgq::GraphFeatures features = sgq::GraphFeaturesOf(graph);
    {
      auto span = tracer_->Span("QueryService::AddGraph", request);
      owner.service->AddGraph(std::move(graph), &gid);
    }
    auto span = tracer_->Span("ResultCache::ApplyAdd", request);
    owner.cache->ApplyAdd(features);
    return;
  }
  const auto it = slot_gid_.find(op.slot);
  if (it == slot_gid_.end()) return;
  const GraphId gid = it->second;
  ShardState& owner = shards_[sgq::ShardOfGraph(gid, count)];
  {
    auto span = tracer_->Span("QueryService::RemoveGraph", request);
    owner.service->RemoveGraph(gid);
  }
  auto span = tracer_->Span("ResultCache::ApplyRemove", request);
  owner.cache->ApplyRemove(gid);
}

void Replay::LiveMutate(const Op& op, ReplayResult* out) {
  const sgq::Deadline deadline =
      sgq::Deadline::AfterSeconds(kQueryTimeoutSeconds);
  std::string line, error;
  GraphId gid = 0;
  if (op.kind == 'A') {
    if (!router_link_->Connect(&error) ||
        !router_link_->Send(AddWire(op.payload), &error) ||
        !router_link_->ReadLine(deadline, &line, &error) ||
        !sgq::ParseAddedResponse(line, &gid)) {
      ++out->wrong;
      return;
    }
    live_slot_gid_[op.slot] = gid;
    return;
  }
  const auto it = live_slot_gid_.find(op.slot);
  GraphId removed = 0;
  if (it == live_slot_gid_.end() || !router_link_->Connect(&error) ||
      !router_link_->Send(RemoveWire(it->second), &error) ||
      !router_link_->ReadLine(deadline, &line, &error) ||
      !sgq::ParseRemovedResponse(line, &removed) || removed != it->second) {
    ++out->wrong;
  }
}

void Replay::LivePass(const std::vector<const Op*>& ops, bool fan_out,
                      ReplayResult* out) {
  for (const sgq::ScatterGather::BroadcastReply& reply :
       scatter_->Broadcast("CACHE CLEAR")) {
    if (!reply.ok || reply.line.rfind("OK", 0) != 0) ++out->wrong;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = *ops[i];
    if (op.kind != 'Q') {
      LiveMutate(op, out);
      continue;
    }
    const int64_t request = static_cast<int64_t>(i) + 1;
    const std::vector<uint32_t>& key = keys_[op.index];
    if (fan_out) {
      const int64_t t0 = NowNs();
      auto span = tracer_->Span("ScatterGather::Query", request);
      const sgq::MergedQuery merged =
          scatter_->Query(op.payload, kQueryTimeoutSeconds, 0);
      if (!merged.ok || BasePart(merged.result.answers, base_graphs_) != key) {
        ++out->wrong;
      }
      const auto path = out->open_path_ms.find(i - warm_count_);
      if (path != out->open_path_ms.end()) {
        path->second += static_cast<double>(NowNs() - t0) / 1e6;
      }
      continue;
    }
    const std::string wire = QueryWire(op.payload);
    std::vector<sgq::ShardQueryReply> replies;
    for (size_t s = 0; s < rtt_links_.size(); ++s) {
      auto span = tracer_->Span("shard.rtt", request);
      replies.push_back(ShardExchange(s, wire));
    }
    auto span = tracer_->Span("MergeShardResults", request);
    const sgq::MergedQuery merged = sgq::MergeShardResults(
        replies, sgq::ShardFailurePolicy::kError, 0);
    if (!merged.ok || BasePart(merged.result.answers, base_graphs_) != key) {
      ++out->wrong;
    }
  }
}

ReplayResult Replay::Run(const Stream& stream, uint64_t limit) {
  ReplayResult out;
  result_ = &out;
  if (!Setup(&out.error)) {
    out.ok = false;
    return out;
  }
  std::vector<const Op*> ops;
  for (const Op& op : stream.warm) ops.push_back(&op);
  for (const Op& op : stream.open) ops.push_back(&op);
  warm_count_ = stream.warm.size();
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(config_.seconds * 1e9);
  for (size_t i = 0; i < ops.size() && i < limit; ++i) {
    if (limit == UINT64_MAX && NowNs() - start >= budget) break;
    const int64_t request = static_cast<int64_t>(i) + 1;
    if (ops[i]->kind == 'Q') {
      Query(*ops[i], request, &out);
    } else {
      Mutate(*ops[i], request);
    }
    ++out.requests;
  }
  // The overhead is taken over the in-process replay only: the live passes
  // carry a span or two per request, and their socket round trips would
  // bury its cost in noise.
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  if (scatter_ != nullptr) {
    ops.resize(out.requests);
    LivePass(ops, true, &out);
    LivePass(ops, false, &out);
  }
  for (ShardState& shard : shards_) shard.service->Shutdown();
  return out;
}

std::vector<double> Ranks(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size());
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = (i + j) / 2.0;
    i = j + 1;
  }
  return ranks;
}

// Spearman rank correlation (Pearson over average ranks); 0 when either
// side is constant.
double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() < 2) return 0;
  const std::vector<double> rx = Ranks(x), ry = Ranks(y);
  const double n = static_cast<double>(x.size());
  const double mx = std::accumulate(rx.begin(), rx.end(), 0.0) / n;
  const double my = std::accumulate(ry.begin(), ry.end(), 0.0) / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  return sxx > 0 && syy > 0 ? sxy / std::sqrt(sxx * syy) : 0;
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, q);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Span names in the spans file and in self-time metric names.
std::string MetricName(const char* span) {
  std::string name = span;
  for (size_t pos; (pos = name.find("::")) != std::string::npos;) {
    name.replace(pos, 2, ".");
  }
  return name;
}

}  // namespace

// Flags: --dir DATASET --stream FILE --engine E --workers W
//        --sched fifo|sjf [--shards unix:a,unix:b --router unix:r]
//        --seconds X --spans-out F --out F
int RunTrace(const Flags& flags) {
  ReplayConfig config;
  config.dir = flags.Get("dir", "");
  config.engine = flags.Get("engine", "CFQL");
  config.workers = static_cast<uint32_t>(flags.GetU64("workers", 2));
  config.sched = flags.Get("sched", "fifo");
  config.seconds = flags.GetDouble("seconds", 2);
  const std::string out_path = flags.Get("out", "");
  const std::string spans_path = flags.Get("spans-out", "");
  std::string error;
  std::vector<sgq::ShardEndpoint> router;
  if (flags.Has("shards") &&
      (!sgq::ParseShardEndpoints(flags.Get("shards", ""),
                                 &config.shard_endpoints, &error) ||
       !sgq::ParseShardEndpoints(flags.Get("router", ""), &router,
                                 &error) ||
       router.size() != 1)) {
    std::fprintf(stderr, "trace: bad --shards or --router %s\n",
                 error.c_str());
    return 2;
  }
  if (!router.empty()) config.router = router[0];
  if (config.dir.empty() || out_path.empty() ||
      !sgq::IsKnownEngine(config.engine)) {
    std::fprintf(stderr, "trace: need --dir, --out and a known --engine\n");
    return 2;
  }
  Stream stream;
  if (!LoadStream(flags.Get("stream", ""), &stream, &error)) {
    std::fprintf(stderr, "trace: %s\n", error.c_str());
    return 1;
  }

  // Pass A (untraced) sets the request count; pass B repeats exactly
  // those requests with spans on.
  Tracer off(false);
  ReplayResult a = Replay(config, &off).Run(stream, UINT64_MAX);
  Tracer on(true);
  ReplayResult b = a.ok ? Replay(config, &on).Run(stream, a.requests) : a;
  if (!b.ok) {
    std::fprintf(stderr, "trace: %s\n", b.error.c_str());
    return 1;
  }

  // Durations and self time per span name.
  const std::vector<SpanRecord>& spans = on.spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, std::vector<double>> dur_ms;
  std::map<std::string, double> self_ns;  // request spans only
  std::map<int64_t, double> request_rtt_max_ms;
  std::map<int64_t, double> request_router_ms;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const double d = static_cast<double>(span.end_ns - span.start_ns);
    dur_ms[span.name].push_back(d / 1e6);
    if (span.request > 0) self_ns[span.name] += d - child_ns[i];
    if (std::string(span.name) == "shard.rtt") {
      request_rtt_max_ms[span.request] =
          std::max(request_rtt_max_ms[span.request], d / 1e6);
    } else if (std::string(span.name) == "ScatterGather::Query") {
      request_router_ms[span.request] = d / 1e6;
    }
  }
  const auto sum_ms = [&](const char* name) {
    const auto it = dur_ms.find(name);
    return it == dur_ms.end()
               ? 0.0
               : std::accumulate(it->second.begin(), it->second.end(), 0.0);
  };
  const auto mean_us = [&](const char* name) {
    const auto it = dur_ms.find(name);
    return it == dur_ms.end() ? 0.0 : Mean(it->second) * 1e3;
  };
  const auto pct_ms = [&](const char* name, double q) {
    const auto it = dur_ms.find(name);
    return it == dur_ms.end() ? 0.0 : Percentile(it->second, q);
  };

  std::vector<double> filter_ms, verify_ms, engine_ms, estimates;
  double candidates = 0, precision = 0, intersect = 0, local = 0;
  double verify_total = 0, si_tests = 0, ws_hits = 0, ws_total = 0;
  for (const Execution& e : b.executions) {
    filter_ms.push_back(e.stats.filtering_ms);
    verify_ms.push_back(e.stats.verification_ms);
    engine_ms.push_back(e.engine_ms);
    estimates.push_back(e.estimate);
    candidates += static_cast<double>(e.stats.num_candidates);
    precision += e.stats.num_candidates == 0
                     ? 1.0
                     : static_cast<double>(e.stats.num_answers) /
                           static_cast<double>(e.stats.num_candidates);
    intersect += static_cast<double>(e.stats.intersect_calls);
    local += static_cast<double>(e.stats.local_candidates);
    verify_total += e.stats.verification_ms;
    si_tests += static_cast<double>(e.stats.si_tests);
    ws_hits += static_cast<double>(e.stats.ws_filter_hits);
    ws_total += static_cast<double>(e.stats.ws_filter_hits +
                                    e.stats.ws_filter_misses);
  }
  const double n_exec = std::max<double>(1, b.executions.size());
  std::vector<double> router_self;
  for (const auto& [request, router_ms] : request_router_ms) {
    router_self.push_back(router_ms - request_rtt_max_ms[request]);
  }

  std::map<std::string, double> m;
  m["graph.load_ms"] = sum_ms("LoadDatabase") + sum_ms("LoadSnapshot");
  m["index.build_ms"] = sum_ms("QueryEngine::Prepare");
  m["index.memory_mb"] = b.index_memory_bytes / (1 << 20);
  m["index.cand_index_build_ms"] = sum_ms("VertexCandidateIndex::Build");
  m["index.cand_index_mb"] = b.cand_index_bytes / (1 << 20);
  m["index.candidates_per_query"] = candidates / n_exec;
  m["index.filter_precision"] = precision / n_exec;
  m["matching.filter_ms_p50"] = Percentile(filter_ms, 0.5);
  m["matching.filter_ms_p99"] = Percentile(filter_ms, 0.99);
  m["matching.verify_ms_p50"] = Percentile(verify_ms, 0.5);
  m["matching.verify_ms_p99"] = Percentile(verify_ms, 0.99);
  m["matching.intersect_calls_per_query"] = intersect / n_exec;
  m["matching.local_candidates_per_query"] = local / n_exec;
  m["matching.per_si_test_us"] =
      si_tests > 0 ? verify_total * 1e3 / si_tests : 0;
  m["matching.ws_hit_ratio"] = ws_total > 0 ? ws_hits / ws_total : 0;
  m["query.engine_ms_p50"] = Percentile(engine_ms, 0.5);
  m["query.engine_ms_p99"] = Percentile(engine_ms, 0.99);
  m["cache.canonicalize_us"] = mean_us("Canonicalize");
  m["cache.lookup_us"] = mean_us("ResultCache::Lookup");
  m["service.parse_us"] = mean_us("RequestParser");
  m["service.format_us"] = mean_us("FormatQueryResponse");
  m["service.cost_estimate_us"] = mean_us("CostModel::Estimate");
  m["service.cost_rank_corr"] = Spearman(estimates, engine_ms);
  m["router.query_ms_p50"] = pct_ms("ScatterGather::Query", 0.5);
  m["router.shard_rtt_ms_p50"] = pct_ms("shard.rtt", 0.5);
  m["router.shard_rtt_ms_p99"] = pct_ms("shard.rtt", 0.99);
  m["router.self_ms_p50"] = Percentile(router_self, 0.5);
  m["router.merge_us"] = mean_us("MergeShardResults");
  m["trace.overhead_frac"] =
      a.wall_s > 0 ? (b.wall_s - a.wall_s) / a.wall_s : 0;
  m["trace.wrong"] = static_cast<double>(a.wrong + b.wrong);
  const double n_req = std::max<double>(1, b.requests);
  for (const auto& [name, ns] : self_ns) {
    m["self_us." + MetricName(name.c_str())] = ns / 1e3 / n_req;
  }

  std::string json = "{";
  for (const auto& [name, value] : m) {
    if (json.size() > 1) json += ',';
    json += '"' + name + "\":" + Num(value);
  }
  json += ",\"open_path_ms\":{";
  bool first = true;
  for (const auto& [index, ms] : b.open_path_ms) {
    if (!first) json += ',';
    first = false;
    json += '"' + std::to_string(index) + "\":" + Num(ms);
  }
  json += "}}\n";
  if (!WriteFile(out_path, json)) {
    std::fprintf(stderr, "trace: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!spans_path.empty()) {
    std::string lines;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      lines += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
               "\",\"start_ns\":" + std::to_string(s.start_ns) +
               ",\"end_ns\":" + std::to_string(s.end_ns) +
               ",\"parent\":" + std::to_string(s.parent) +
               ",\"request\":" + std::to_string(s.request) + "}\n";
    }
    if (!WriteFile(spans_path, lines)) {
      std::fprintf(stderr, "trace: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace sgqbench
