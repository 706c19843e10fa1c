#include "matching/cfl.h"

#include <algorithm>
#include <cmath>

#include "index/vertex_candidate_index.h"
#include "matching/workspace.h"
#include "util/logging.h"

namespace sgq {

size_t CpiData::Footprint(bool retained) const {
  size_t bytes = phi.MemoryBytes(retained);
  bytes += VectorBytes(tree.parent, retained) +
           VectorBytes(tree.level, retained) +
           VectorBytes(tree.order, retained);
  bytes += VectorBytes(children, retained);
  for (const auto& per_parent : children) {
    bytes += VectorBytes(per_parent, retained);
    for (const auto& list : per_parent) bytes += VectorBytes(list, retained);
  }
  bytes += VectorBytes(matching_order, retained);
  return bytes;
}

namespace {

// Root selection: the (core, if any exists) query vertex minimizing
// |LDF candidates| / degree.
VertexId SelectRoot(const Graph& query, const Graph& data) {
  const uint32_t n = query.NumVertices();
  if (n == 1) return 0;
  std::vector<bool> in_core = TwoCoreMembership(query);
  bool has_core = false;
  for (bool b : in_core) has_core |= b;

  const auto* index = data.candidate_index();
  VertexId best = kInvalidVertex;
  double best_score = 0;
  for (VertexId u = 0; u < n; ++u) {
    if (has_core && !in_core[u]) continue;
    uint32_t count = 0;
    if (index != nullptr) {
      // O(log bucket) exact LDF count from the degree-sorted index instead
      // of scanning the whole label bucket per query vertex.
      count = index->CountWithLabelDegree(query.label(u), query.degree(u));
    } else {
      for (VertexId v : data.VerticesWithLabel(query.label(u))) {
        if (data.degree(v) >= query.degree(u)) ++count;
      }
    }
    const double score =
        static_cast<double>(count) / static_cast<double>(query.degree(u));
    if (best == kInvalidVertex || score < best_score) {
      best = u;
      best_score = score;
    }
  }
  return best;
}

// Path-based matching order: starting from the root, repeatedly emit the
// available vertex (tree parent already emitted) with the best
// (core-membership, estimated path cardinality, |Φ|) priority. Guarantees
// parents precede children, which the CPI-driven enumeration requires.
// Writes into out->matching_order (recycled capacity).
void BuildMatchingOrder(const Graph& query, CpiData* cpi) {
  const uint32_t n = query.NumVertices();
  const std::vector<bool> in_core = TwoCoreMembership(query);

  // Estimated cardinality of the cheapest root-to-leaf path through each
  // vertex: est(u) = est(parent) * avg CPI fanout of the tree edge; leaves
  // propagate their est to ancestors via min.
  std::vector<double> down_est(n, 0);
  for (VertexId u : cpi->tree.order) {
    if (u == cpi->tree.root) {
      down_est[u] = static_cast<double>(cpi->phi.set(u).size());
      continue;
    }
    const VertexId p = cpi->tree.parent[u];
    uint64_t edge_count = 0;
    for (const auto& list : cpi->children[u]) edge_count += list.size();
    const double fanout =
        cpi->phi.set(p).empty()
            ? 1.0
            : static_cast<double>(edge_count) / cpi->phi.set(p).size();
    down_est[u] = down_est[p] * std::max(fanout, 1e-3);
  }
  std::vector<double> path_est = down_est;
  // Reverse BFS order: fold the cheapest descendant path into each vertex.
  for (auto it = cpi->tree.order.rbegin(); it != cpi->tree.order.rend();
       ++it) {
    const VertexId u = *it;
    for (VertexId c : cpi->tree.children[u]) {
      path_est[u] = std::min(path_est[u], path_est[c]);
    }
  }

  // Rank: core vertices first, then internal forest vertices, leaves last
  // ("postponing cartesian products").
  auto rank = [&](VertexId u) -> int {
    if (in_core[u]) return 0;
    return query.degree(u) <= 1 ? 2 : 1;
  };

  std::vector<VertexId>& order = cpi->matching_order;
  order.clear();
  order.reserve(n);
  std::vector<VertexId> available = {cpi->tree.root};
  while (!available.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < available.size(); ++i) {
      const VertexId a = available[i];
      const VertexId b = available[best];
      const int ra = rank(a), rb = rank(b);
      if (ra != rb) {
        if (ra < rb) best = i;
        continue;
      }
      if (path_est[a] != path_est[b]) {
        if (path_est[a] < path_est[b]) best = i;
        continue;
      }
      if (cpi->phi.set(a).size() < cpi->phi.set(b).size()) best = i;
    }
    const VertexId u = available[best];
    available.erase(available.begin() + static_cast<long>(best));
    order.push_back(u);
    for (VertexId c : cpi->tree.children[u]) available.push_back(c);
  }
  SGQ_CHECK_EQ(order.size(), n);
}

struct CflEnumContext {
  const Graph& query;
  const Graph& data;
  const CpiData& cpi;
  uint64_t limit;
  DeadlineChecker* checker;
  const EmbeddingCallback& callback;

  // Backward neighbors per depth, split into the tree parent (candidate
  // source) and the rest (adjacency checks). All borrowed from a workspace
  // (or a call-local one) so capacity survives across calls.
  std::vector<std::vector<VertexId>>& check_neighbors;
  std::vector<VertexId>& mapping;
  std::vector<uint32_t>& phi_index;  // index of mapping[u] in phi.set(u)
  // Epoch-stamped "already matched" marker (see MatchWorkspace): v is used
  // iff used_stamp[v] == epoch, so no per-call O(|V(G)|) clear.
  std::vector<uint32_t>& used_stamp;
  const uint32_t epoch;
  EnumerateResult result;

  bool TryVertex(uint32_t depth, VertexId u, uint32_t candidate_index) {
    const VertexId v = cpi.phi.set(u)[candidate_index];
    if (used_stamp[v] == epoch) return true;
    for (VertexId w : check_neighbors[depth]) {
      if (!data.HasEdge(mapping[w], v)) return true;
    }
    mapping[u] = v;
    phi_index[u] = candidate_index;
    used_stamp[v] = epoch;
    const bool keep_going = Recurse(depth + 1);
    used_stamp[v] = 0;
    mapping[u] = kInvalidVertex;
    return keep_going;
  }

  bool Recurse(uint32_t depth) {
    if (checker != nullptr && checker->Tick()) {
      result.aborted = true;
      return false;
    }
    ++result.recursion_calls;
    if (depth == cpi.matching_order.size()) {
      ++result.embeddings;
      if (callback && !callback(mapping)) {
        result.sink_stopped = true;
        return false;
      }
      return result.embeddings < limit;
    }
    const VertexId u = cpi.matching_order[depth];
    if (u == cpi.tree.root) {
      for (uint32_t i = 0; i < cpi.phi.set(u).size(); ++i) {
        if (!TryVertex(depth, u, i)) return false;
      }
    } else {
      const VertexId p = cpi.tree.parent[u];
      // Candidates adjacent (in the CPI) to the parent's current image.
      for (uint32_t i : cpi.children[u][phi_index[p]]) {
        if (!TryVertex(depth, u, i)) return false;
      }
    }
    return true;
  }
};

EnumerateResult CflEnumerate(const Graph& query, const Graph& data,
                             const CpiData& cpi, uint64_t limit,
                             DeadlineChecker* checker,
                             const EmbeddingCallback& callback,
                             MatchWorkspace& w) {
  const uint32_t n = query.NumVertices();
  if (w.backward_neighbors.size() != n) w.backward_neighbors.resize(n);
  for (auto& l : w.backward_neighbors) l.clear();
  w.placed.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId u = cpi.matching_order[i];
    const VertexId parent =
        u == cpi.tree.root ? kInvalidVertex : cpi.tree.parent[u];
    for (VertexId v : query.Neighbors(u)) {
      // The tree parent's adjacency is implied by the CPI edge; check only
      // the other backward neighbors.
      if (w.placed[v] && v != parent) w.backward_neighbors[i].push_back(v);
    }
    w.placed[u] = 1;
  }
  w.mapping.assign(n, kInvalidVertex);
  w.phi_index.assign(n, UINT32_MAX);
  const uint32_t epoch = w.BeginUsedEpoch(data.NumVertices());

  CflEnumContext ctx{query,    data,      cpi,         limit, checker,
                     callback, w.backward_neighbors, w.mapping,
                     w.phi_index, w.used_stamp, epoch, {}};
  ctx.Recurse(0);
  return ctx.result;
}

}  // namespace

bool CflCandidatesInto(const Graph& query, const Graph& data,
                       const CflOptions& options, MatchWorkspace& w,
                       BfsTree* tree_out, CandidateSets* phi) {
  SGQ_CHECK_GT(query.NumVertices(), 0u);
  const uint32_t n = query.NumVertices();
  phi->ResetForReuse(n);
  if (data.NumVertices() == 0) return false;

  const VertexId root = SelectRoot(query, data);
  *tree_out = BuildBfsTree(query, root);
  const BfsTree& tree = *tree_out;

  // Position of each query vertex in BFS visit order; backward neighbors of
  // u are its query-graph neighbors visited before u, forward ones after.
  std::vector<uint32_t>& order_pos = w.order_pos;
  order_pos.resize(n);
  for (uint32_t i = 0; i < n; ++i) order_pos[tree.order[i]] = i;

  // --- Top-down generation with backward pruning ------------------------
  // For each backward neighbor u' of u, N(Φ(u')) is OR-ed into a word
  // bitmap over V(G) (`hit`, or `acc` for the first); `acc` keeps the
  // word-wise AND across them. The id-ordered label bucket is then walked
  // against `acc`, so Φ(u) comes out sorted. Both bitmaps are cleared
  // before they are filled, so nothing carries over between calls.
  const size_t words = (static_cast<size_t>(data.NumVertices()) + 63) / 64;
  if (w.acc_bits.size() < words) w.acc_bits.resize(words);
  if (w.hit_bits.size() < words) w.hit_bits.resize(words);
  uint64_t* const acc = w.acc_bits.data();
  uint64_t* const hit = w.hit_bits.data();
  std::vector<VertexId> backward;
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId u = tree.order[i];
    auto& set = phi->mutable_set(u);
    if (u == root) {
      LdfNlfCandidatesInto(query, data, u, options.use_nlf, &set);
      if (set.empty()) return false;
      continue;
    }
    backward.clear();
    for (VertexId v : query.Neighbors(u)) {
      if (order_pos[v] < i) backward.push_back(v);
    }
    SGQ_CHECK(!backward.empty());
    for (size_t k = 0; k < backward.size(); ++k) {
      uint64_t* const bits = k == 0 ? acc : hit;
      std::fill(bits, bits + words, 0);
      for (VertexId vprime : phi->set(backward[k])) {
        for (VertexId v : data.Neighbors(vprime)) {
          bits[v >> 6] |= uint64_t{1} << (v & 63);
        }
      }
      if (k > 0) {
        for (size_t x = 0; x < words; ++x) acc[x] &= hit[x];
      }
    }
    for (VertexId v : data.VerticesWithLabel(query.label(u))) {
      if ((acc[v >> 6] >> (v & 63) & 1) != 0 &&
          PassesDegreeNlf(query, data, u, v, options.use_nlf)) {
        set.push_back(v);
      }
    }
    if (set.empty()) return false;
  }

  // --- Bottom-up refinement ---------------------------------------------
  // Keep v in Φ(u) only if every forward neighbor u' has a candidate
  // adjacent to v. Forward vertices come earlier in this reverse sweep, so
  // Φ(u') is already refined. Φ(u') is stamped into `hit` and v survives
  // iff some w ∈ N(v) carries the stamp: a scan that stops at the first
  // hit. Only the stamped words are cleared again afterwards.
  if (options.refine_bottom_up) {
    std::fill(hit, hit + words, 0);
    for (uint32_t i = n; i-- > 0;) {
      const VertexId u = tree.order[i];
      auto& set = phi->mutable_set(u);
      for (VertexId uprime : query.Neighbors(u)) {
        if (order_pos[uprime] < i) continue;
        const auto& stamped = phi->set(uprime);
        for (VertexId v : stamped) hit[v >> 6] |= uint64_t{1} << (v & 63);
        set.erase(std::remove_if(set.begin(), set.end(),
                                 [&](VertexId v) {
                                   for (VertexId x : data.Neighbors(v)) {
                                     if ((hit[x >> 6] >> (x & 63) & 1) != 0) {
                                       return false;
                                     }
                                   }
                                   return true;
                                 }),
                  set.end());
        for (VertexId v : stamped) hit[v >> 6] = 0;
        if (set.empty()) return false;
      }
    }
  }
  return true;
}

void CflMatcher::FilterInto(const Graph& query, const Graph& data,
                            MatchWorkspace& w, CpiData* out) const {
  if (!CflCandidatesInto(query, data, options_, w, &out->tree, &out->phi)) {
    return;
  }
  const uint32_t n = query.NumVertices();
  const BfsTree& tree = out->tree;

  // --- CPI edges along tree edges ----------------------------------------
  // For each non-root u and each candidate of parent(u), record the indices
  // (into Φ(u)) of adjacent candidates. The nested lists are resized, not
  // reassigned, so a recycled CpiData keeps their heap buffers.
  if (out->children.size() != n) out->children.resize(n);
  std::vector<uint32_t>& index_of = w.index_of;
  index_of.assign(data.NumVertices(), UINT32_MAX);
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId u = tree.order[i];
    auto& per_parent = out->children[u];
    if (u == tree.root) {
      per_parent.clear();
      continue;
    }
    const VertexId p = tree.parent[u];
    const auto& pu_set = out->phi.set(p);
    const auto& u_set = out->phi.set(u);
    for (uint32_t j = 0; j < u_set.size(); ++j) index_of[u_set[j]] = j;
    per_parent.resize(pu_set.size());
    for (uint32_t pj = 0; pj < pu_set.size(); ++pj) {
      per_parent[pj].clear();
      for (VertexId v : data.Neighbors(pu_set[pj])) {
        if (index_of[v] != UINT32_MAX) per_parent[pj].push_back(index_of[v]);
      }
    }
    for (uint32_t j = 0; j < u_set.size(); ++j) index_of[u_set[j]] = UINT32_MAX;
  }

  BuildMatchingOrder(query, out);
}

std::unique_ptr<FilterData> CflMatcher::Filter(const Graph& query,
                                               const Graph& data) const {
  auto out = std::make_unique<CpiData>();
  MatchWorkspace local;
  FilterInto(query, data, local, out.get());
  return out;
}

FilterData* CflMatcher::Filter(const Graph& query, const Graph& data,
                               MatchWorkspace* ws) const {
  SGQ_CHECK(ws != nullptr);
  CpiData* out = ws->AcquireFilterData<CpiData>();
  FilterInto(query, data, *ws, out);
  return out;
}

EnumerateResult CflMatcher::Enumerate(const Graph& query, const Graph& data,
                                      const FilterData& data_aux,
                                      uint64_t limit, DeadlineChecker* checker,
                                      const EmbeddingCallback& callback) const {
  const auto* cpi = dynamic_cast<const CpiData*>(&data_aux);
  SGQ_CHECK(cpi != nullptr) << "CflMatcher::Enumerate requires CpiData";
  if (!cpi->Passed() || limit == 0) return {};
  MatchWorkspace local;
  return CflEnumerate(query, data, *cpi, limit, checker, callback, local);
}

EnumerateResult CflMatcher::Enumerate(const Graph& query, const Graph& data,
                                      const FilterData& data_aux,
                                      uint64_t limit, DeadlineChecker* checker,
                                      MatchWorkspace* ws,
                                      const EmbeddingCallback& callback) const {
  const auto* cpi = dynamic_cast<const CpiData*>(&data_aux);
  SGQ_CHECK(cpi != nullptr) << "CflMatcher::Enumerate requires CpiData";
  SGQ_CHECK(ws != nullptr);
  if (!cpi->Passed() || limit == 0) return {};
  return CflEnumerate(query, data, *cpi, limit, checker, callback, *ws);
}

}  // namespace sgq
