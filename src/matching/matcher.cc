#include "matching/matcher.h"

#include <algorithm>
#include <atomic>

#include "matching/workspace.h"
#include "util/intersect.h"
#include "util/logging.h"

namespace sgq {

namespace {

std::atomic<ExtensionPath> g_default_extension_path{ExtensionPath::kAdaptive};

}  // namespace

void SetDefaultExtensionPath(ExtensionPath path) {
  g_default_extension_path.store(path, std::memory_order_relaxed);
}

ExtensionPath DefaultExtensionPath() {
  return g_default_extension_path.load(std::memory_order_relaxed);
}

FilterData* Matcher::Filter(const Graph& query, const Graph& data,
                            MatchWorkspace* ws) const {
  SGQ_CHECK(ws != nullptr);
  return ws->ParkFilterData(Filter(query, data));
}

EnumerateResult Matcher::Enumerate(const Graph& query, const Graph& data,
                                   const FilterData& data_aux, uint64_t limit,
                                   DeadlineChecker* checker, MatchWorkspace* ws,
                                   const EmbeddingCallback& callback) const {
  (void)ws;
  return Enumerate(query, data, data_aux, limit, checker, callback);
}

int Matcher::Contains(const Graph& query, const Graph& data,
                      DeadlineChecker* checker) const {
  const auto filter_data = Filter(query, data);
  if (!filter_data->Passed()) return 0;
  const EnumerateResult result =
      Enumerate(query, data, *filter_data, /*limit=*/1, checker);
  if (result.aborted) return -1;
  return result.embeddings > 0 ? 1 : 0;
}

int Matcher::Contains(const Graph& query, const Graph& data,
                      DeadlineChecker* checker, MatchWorkspace* ws) const {
  const FilterData* filter_data = Filter(query, data, ws);
  if (!filter_data->Passed()) return 0;
  const EnumerateResult result =
      Enumerate(query, data, *filter_data, /*limit=*/1, checker, ws);
  if (result.aborted) return -1;
  return result.embeddings > 0 ? 1 : 0;
}

namespace {

// Φ(u) sizes at or below which the adaptive path keeps the legacy probe
// scan: the whole candidate list is scanned for less than the cost of one
// adjacency-list walk, so setting up intersections cannot pay off.
constexpr size_t kProbeFallbackSize = 8;

// Iterative-friendly recursive backtracking; query sizes are tiny (tens of
// vertices) so recursion depth is not a concern. All vectors are borrowed
// from a MatchWorkspace (or a call-local one) so repeated calls reuse their
// capacity.
//
// The extension step computes each search node's local candidate set as an
// explicit intersection (ExtensionPath::kIntersect / kAdaptive): the mapped
// backward neighbors' adjacency lists are intersected smallest-first with
// the adaptive kernels of util/intersect.h, short-circuiting on empty, and
// the result is filtered through a lazily built, epoch-stamped Φ(u)
// membership row — unless Φ(u) itself is the smallest operand, in which
// case it joins the list intersection directly and the row is never built.
// All candidate production is in ascending vertex order, identical to the
// legacy probe scan, so the two paths visit the same search tree.
struct BacktrackContext {
  const Graph& query;
  const Graph& data;
  const CandidateSets& phi;
  const std::vector<VertexId>& order;
  // For each depth i, the already-ordered neighbors of order[i].
  std::vector<std::vector<VertexId>>& backward_neighbors;
  uint64_t limit;
  DeadlineChecker* checker;
  const EmbeddingCallback& callback;
  MatchWorkspace& w;
  const uint32_t epoch;  // current used/Φ-membership stamp epoch
  const ExtensionPath path;

  std::vector<VertexId>& mapping;  // query vertex -> data vertex
  EnumerateResult result;
  IntersectCounters counters;

  // Lazily builds (once per depth per call) the Φ(order[depth]) membership
  // row: row[v] == epoch iff v ∈ Φ(order[depth]).
  const std::vector<uint32_t>& PhiRow(uint32_t depth, VertexId u) {
    std::vector<uint32_t>& row = w.phi_stamp[depth];
    if (w.phi_stamp_epoch[depth] != epoch) {
      if (row.size() < data.NumVertices()) row.resize(data.NumVertices(), 0);
      for (VertexId v : phi.set(u)) row[v] = epoch;
      w.phi_stamp_epoch[depth] = epoch;
    }
    return row;
  }

  // Maps u -> v (injectivity via the used stamp) and recurses. Returns
  // false when the search should stop entirely.
  bool TryCandidate(uint32_t depth, VertexId u, VertexId v) {
    if (w.used_stamp[v] == epoch) return true;
    mapping[u] = v;
    w.used_stamp[v] = epoch;
    const bool keep_going = Recurse(depth + 1);
    w.used_stamp[v] = 0;
    mapping[u] = kInvalidVertex;
    return keep_going;
  }

  // Legacy extension: scan all of Φ(u), probing HasEdge per backward
  // neighbor per candidate. Kept for depth-0/no-backward-neighbor nodes and
  // as the adaptive fallback for tiny Φ(u).
  bool ExtendByProbe(uint32_t depth, VertexId u) {
    for (VertexId v : phi.set(u)) {
      if (w.used_stamp[v] == epoch) continue;
      bool ok = true;
      for (VertexId prev_u : backward_neighbors[depth]) {
        if (!data.HasEdge(mapping[prev_u], v)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      mapping[u] = v;
      w.used_stamp[v] = epoch;
      const bool keep_going = Recurse(depth + 1);
      w.used_stamp[v] = 0;
      mapping[u] = kInvalidVertex;
      if (!keep_going) return false;
    }
    return true;
  }

  // Intersection-based extension; requires at least one backward neighbor.
  bool ExtendByIntersect(uint32_t depth, VertexId u) {
    const std::vector<VertexId>& phi_u = phi.set(u);
    const std::vector<VertexId>& bn = backward_neighbors[depth];

    if (bn.size() == 1) {
      const VertexId anchor = mapping[bn[0]];
      const auto nbrs = data.Neighbors(anchor);
      if (phi_u.size() <= nbrs.size()) {
        // Φ(u) is the smaller operand: one adaptive list intersection.
        std::vector<VertexId>& buf = w.local_a[depth];
        IntersectInto(phi_u, nbrs, &buf, &counters);
        result.local_candidates += buf.size();
        for (VertexId v : buf) {
          if (!TryCandidate(depth, u, v)) return false;
        }
      } else {
        // Φ(u) is the denser operand: stream the adjacency list through the
        // Φ membership row, no materialization at all. (The adjacency span
        // points into graph storage, so it is stable across the recursion.)
        const std::vector<uint32_t>& row = PhiRow(depth, u);
        for (VertexId v : nbrs) {
          if (row[v] != epoch) continue;
          ++result.local_candidates;
          if (!TryCandidate(depth, u, v)) return false;
        }
      }
      return true;
    }

    // Two or more backward neighbors: order their adjacency lists by size.
    // w.adj_by_size is shared across depths; it is fully consumed before
    // any recursion, so that is safe.
    auto& by_size = w.adj_by_size;
    by_size.clear();
    for (VertexId prev_u : bn) {
      const VertexId v = mapping[prev_u];
      by_size.emplace_back(data.degree(v), v);
    }
    std::sort(by_size.begin(), by_size.end());
    if (by_size.front().first == 0) return true;  // empty operand

    std::vector<VertexId>& buf_a = w.local_a[depth];
    std::vector<VertexId>& buf_b = w.local_b[depth];
    const bool phi_joins = phi_u.size() <= by_size.front().first;
    // Seed: Φ(u) vs the smallest adjacency list when Φ is smallest, else
    // the two smallest adjacency lists.
    if (phi_joins) {
      IntersectInto(phi_u, data.Neighbors(by_size[0].second), &buf_a,
                    &counters);
    } else {
      IntersectInto(data.Neighbors(by_size[0].second),
                    data.Neighbors(by_size[1].second), &buf_a, &counters);
    }
    std::vector<VertexId>* current = &buf_a;
    std::vector<VertexId>* scratch = &buf_b;
    for (size_t i = phi_joins ? 1 : 2; i < by_size.size(); ++i) {
      if (current->empty()) return true;  // short-circuit: no extension
      IntersectInto(*current, data.Neighbors(by_size[i].second), scratch,
                    &counters);
      std::swap(current, scratch);
    }
    if (current->empty()) return true;

    if (phi_joins) {
      result.local_candidates += current->size();
      for (VertexId v : *current) {
        if (!TryCandidate(depth, u, v)) return false;
      }
    } else {
      const std::vector<uint32_t>& row = PhiRow(depth, u);
      for (VertexId v : *current) {
        if (row[v] != epoch) continue;
        ++result.local_candidates;
        if (!TryCandidate(depth, u, v)) return false;
      }
    }
    return true;
  }

  bool Recurse(uint32_t depth) {
    if (checker != nullptr && checker->Tick()) {
      result.aborted = true;
      return false;
    }
    ++result.recursion_calls;
    if (depth == order.size()) {
      ++result.embeddings;
      if (callback && !callback(mapping)) {
        result.sink_stopped = true;
        return false;
      }
      return result.embeddings < limit;
    }
    const VertexId u = order[depth];
    if (backward_neighbors[depth].empty() || path == ExtensionPath::kProbe ||
        (path == ExtensionPath::kAdaptive &&
         phi.set(u).size() <= kProbeFallbackSize)) {
      return ExtendByProbe(depth, u);
    }
    return ExtendByIntersect(depth, u);
  }
};

// Resizes the per-depth neighbor lists without freeing inner capacity.
void ResetBackwardNeighbors(std::vector<std::vector<VertexId>>* lists,
                            size_t depths) {
  if (lists->size() != depths) lists->resize(depths);
  for (auto& l : *lists) l.clear();
}

// Grows per-depth scratch pools without freeing inner capacity.
void EnsureDepthScratch(MatchWorkspace* w, size_t depths) {
  if (w->phi_stamp.size() < depths) w->phi_stamp.resize(depths);
  if (w->phi_stamp_epoch.size() < depths) {
    w->phi_stamp_epoch.resize(depths, 0);
  }
  if (w->local_a.size() < depths) w->local_a.resize(depths);
  if (w->local_b.size() < depths) w->local_b.resize(depths);
}

}  // namespace

EnumerateResult BacktrackOverCandidates(const Graph& query, const Graph& data,
                                        const CandidateSets& phi,
                                        const std::vector<VertexId>& order,
                                        uint64_t limit,
                                        DeadlineChecker* checker,
                                        const EmbeddingCallback& callback,
                                        MatchWorkspace* ws) {
  return BacktrackOverCandidates(query, data, phi, order, limit, checker,
                                 callback, ws, DefaultExtensionPath());
}

EnumerateResult BacktrackOverCandidates(const Graph& query, const Graph& data,
                                        const CandidateSets& phi,
                                        const std::vector<VertexId>& order,
                                        uint64_t limit,
                                        DeadlineChecker* checker,
                                        const EmbeddingCallback& callback,
                                        MatchWorkspace* ws,
                                        ExtensionPath path) {
  SGQ_CHECK_EQ(order.size(), query.NumVertices());
  if (limit == 0) return {};
  MatchWorkspace local;
  MatchWorkspace& w = ws != nullptr ? *ws : local;

  ResetBackwardNeighbors(&w.backward_neighbors, order.size());
  w.placed.assign(query.NumVertices(), 0);
  for (uint32_t i = 0; i < order.size(); ++i) {
    const VertexId u = order[i];
    for (VertexId v : query.Neighbors(u)) {
      if (w.placed[v]) w.backward_neighbors[i].push_back(v);
    }
    w.placed[u] = 1;
  }
  w.mapping.assign(query.NumVertices(), kInvalidVertex);
  EnsureDepthScratch(&w, order.size());
  const uint32_t epoch = w.BeginUsedEpoch(data.NumVertices());

  BacktrackContext ctx{query,    data, phi,   order, w.backward_neighbors,
                       limit,    checker,     callback,
                       w,        epoch,       path,
                       w.mapping, {},         {}};
  ctx.Recurse(0);
  ctx.result.intersect_calls = ctx.counters.calls;
  ctx.result.intersect_merge = ctx.counters.merge_calls;
  ctx.result.intersect_gallop = ctx.counters.gallop_calls;
  ctx.result.intersect_simd = ctx.counters.simd_calls;
  return ctx.result;
}

namespace {

void JoinBasedOrderInto(const Graph& query, const CandidateSets& phi,
                        std::vector<VertexId>* order,
                        std::vector<char>* selected) {
  const uint32_t n = query.NumVertices();
  SGQ_CHECK_GT(n, 0u);
  order->clear();
  order->reserve(n);
  selected->assign(n, 0);

  // Start vertex: globally fewest candidates (ties -> smaller id).
  VertexId start = 0;
  for (VertexId u = 1; u < n; ++u) {
    if (phi.set(u).size() < phi.set(start).size()) start = u;
  }
  order->push_back(start);
  (*selected)[start] = 1;

  for (uint32_t step = 1; step < n; ++step) {
    VertexId best = kInvalidVertex;
    for (VertexId u = 0; u < n; ++u) {
      if ((*selected)[u]) continue;
      // u must neighbor a selected vertex (query is connected, so one
      // always exists among unselected-with-selected-neighbor vertices).
      bool frontier = false;
      for (VertexId w : query.Neighbors(u)) {
        if ((*selected)[w]) {
          frontier = true;
          break;
        }
      }
      if (!frontier) continue;
      if (best == kInvalidVertex ||
          phi.set(u).size() < phi.set(best).size()) {
        best = u;
      }
    }
    SGQ_CHECK_NE(best, kInvalidVertex) << "query must be connected";
    order->push_back(best);
    (*selected)[best] = 1;
  }
}

}  // namespace

std::vector<VertexId> JoinBasedOrder(const Graph& query,
                                     const CandidateSets& phi) {
  std::vector<VertexId> order;
  std::vector<char> selected;
  JoinBasedOrderInto(query, phi, &order, &selected);
  return order;
}

const std::vector<VertexId>& JoinBasedOrder(const Graph& query,
                                            const CandidateSets& phi,
                                            MatchWorkspace* ws) {
  SGQ_CHECK(ws != nullptr);
  JoinBasedOrderInto(query, phi, &ws->order, &ws->placed);
  return ws->order;
}

}  // namespace sgq
