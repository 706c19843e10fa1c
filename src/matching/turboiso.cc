#include "matching/turboiso.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/logging.h"

namespace sgq {

size_t TurboIsoData::Footprint(bool retained) const {
  size_t bytes = phi.MemoryBytes(retained);
  bytes += VectorBytes(tree.parent, retained) +
           VectorBytes(tree.level, retained) +
           VectorBytes(tree.order, retained);
  for (const CandidateRegion& region : regions) {
    bytes += VectorBytes(region.candidates, retained);
    for (const auto& set : region.candidates) {
      bytes += VectorBytes(set, retained);
    }
  }
  return bytes;
}

namespace {

// TurboIso's start-vertex rule: minimize freq(G, L(u)) / d(u).
VertexId SelectStartVertex(const Graph& query, const Graph& data) {
  VertexId best = 0;
  double best_score = 0;
  for (VertexId u = 0; u < query.NumVertices(); ++u) {
    const double freq = data.NumVerticesWithLabel(query.label(u));
    const double score = freq / std::max(1u, query.degree(u));
    if (u == 0 || score < best_score) {
      best = u;
      best_score = score;
    }
  }
  return best;
}

// Explores the candidate region rooted at data vertex `root_v`. Returns
// false if some query vertex ends up with no candidates in the region.
bool ExploreRegion(const Graph& query, const Graph& data, const BfsTree& tree,
                   const std::vector<uint32_t>& order_pos, bool use_nlf,
                   VertexId root_v, std::vector<uint32_t>* scratch,
                   CandidateRegion* region) {
  const uint32_t n = query.NumVertices();
  region->root_candidate = root_v;
  region->candidates.assign(n, {});
  region->candidates[tree.root] = {root_v};

  std::vector<uint32_t>& cnt = *scratch;
  for (uint32_t i = 1; i < n; ++i) {
    const VertexId u = tree.order[i];
    // Backward neighbors: query neighbors already explored in this region.
    std::vector<VertexId> backward;
    for (VertexId w : query.Neighbors(u)) {
      if (order_pos[w] < i) backward.push_back(w);
    }
    std::fill(cnt.begin(), cnt.end(), 0);
    uint32_t k = 0;
    for (VertexId uprime : backward) {
      for (VertexId vprime : region->candidates[uprime]) {
        for (VertexId w : data.Neighbors(vprime)) {
          if (cnt[w] == k) ++cnt[w];
        }
      }
      ++k;
    }
    auto& out = region->candidates[u];
    for (VertexId w : data.VerticesWithLabel(query.label(u))) {
      if (cnt[w] == k && PassesLdfNlf(query, data, u, w, use_nlf)) {
        out.push_back(w);
      }
    }
    if (out.empty()) return false;
  }
  return true;
}

// Path-based order within a region: repeatedly emit the available vertex
// (tree parent emitted) whose cheapest root-to-leaf path is smallest.
std::vector<VertexId> RegionOrder(const BfsTree& tree,
                                  const CandidateRegion& region) {
  const uint32_t n = static_cast<uint32_t>(region.candidates.size());
  std::vector<double> down(n, 1);
  for (VertexId u : tree.order) {
    down[u] = (u == tree.root ? 1.0 : down[tree.parent[u]]) *
              std::max<size_t>(1, region.candidates[u].size());
  }
  std::vector<double> path_est = down;
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    for (VertexId c : tree.children[*it]) {
      path_est[*it] = std::min(path_est[*it], path_est[c]);
    }
  }
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<VertexId> available = {tree.root};
  while (!available.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < available.size(); ++i) {
      if (path_est[available[i]] < path_est[available[best]]) best = i;
    }
    const VertexId u = available[best];
    available.erase(available.begin() + static_cast<long>(best));
    order.push_back(u);
    for (VertexId c : tree.children[u]) available.push_back(c);
  }
  return order;
}

}  // namespace

std::unique_ptr<FilterData> TurboIsoMatcher::Filter(const Graph& query,
                                                    const Graph& data) const {
  SGQ_CHECK_GT(query.NumVertices(), 0u);
  auto out = std::make_unique<TurboIsoData>();
  const uint32_t n = query.NumVertices();
  out->phi = CandidateSets(n);
  if (data.NumVertices() == 0) return out;

  const VertexId start = SelectStartVertex(query, data);
  out->tree = BuildBfsTree(query, start);
  std::vector<uint32_t> order_pos(n);
  for (uint32_t i = 0; i < n; ++i) order_pos[out->tree.order[i]] = i;

  std::vector<uint32_t> scratch(data.NumVertices(), 0);
  std::vector<std::set<VertexId>> merged(n);
  for (VertexId v : data.VerticesWithLabel(query.label(start))) {
    if (!PassesLdfNlf(query, data, start, v, options_.use_nlf)) continue;
    CandidateRegion region;
    if (!ExploreRegion(query, data, out->tree, order_pos, options_.use_nlf,
                       v, &scratch, &region)) {
      continue;
    }
    for (VertexId u = 0; u < n; ++u) {
      merged[u].insert(region.candidates[u].begin(),
                       region.candidates[u].end());
    }
    out->regions.push_back(std::move(region));
  }
  for (VertexId u = 0; u < n; ++u) {
    out->phi.mutable_set(u).assign(merged[u].begin(), merged[u].end());
  }
  return out;
}

EnumerateResult TurboIsoMatcher::Enumerate(const Graph& query,
                                           const Graph& data,
                                           const FilterData& data_aux,
                                           uint64_t limit,
                                           DeadlineChecker* checker,
                                           const EmbeddingCallback& callback)
    const {
  const auto* aux = dynamic_cast<const TurboIsoData*>(&data_aux);
  SGQ_CHECK(aux != nullptr) << "TurboIsoMatcher::Enumerate needs TurboIsoData";
  EnumerateResult total;
  if (!aux->Passed() || limit == 0) return total;

  for (const CandidateRegion& region : aux->regions) {
    // Each region is an independent sub-search restricted to its candidate
    // sets; the shared backtracker handles edges and injectivity.
    CandidateSets phi(query.NumVertices());
    for (VertexId u = 0; u < query.NumVertices(); ++u) {
      phi.mutable_set(u) = region.candidates[u];
    }
    const std::vector<VertexId> order = RegionOrder(aux->tree, region);
    const EnumerateResult r = BacktrackOverCandidates(
        query, data, phi, order, limit - total.embeddings, checker, callback);
    total.embeddings += r.embeddings;
    total.AddCounters(r);
    if (r.sink_stopped) {
      total.sink_stopped = true;
      break;
    }
    if (r.aborted) {
      total.aborted = true;
      break;
    }
    if (total.embeddings >= limit) break;
  }
  return total;
}

}  // namespace sgq
