#include "matching/direct_enumeration.h"

#include "util/logging.h"

namespace sgq {

namespace {

// Label + degree candidates for every query vertex (no NLF — the
// direct-enumeration algorithms predate neighborhood signatures).
std::unique_ptr<FilterData> LabelDegreeFilter(const Graph& query,
                                              const Graph& data) {
  auto out = std::make_unique<FilterData>();
  out->phi = CandidateSets(query.NumVertices());
  for (VertexId u = 0; u < query.NumVertices(); ++u) {
    auto& set = out->phi.mutable_set(u);
    for (VertexId v : data.VerticesWithLabel(query.label(u))) {
      if (data.degree(v) >= query.degree(u)) set.push_back(v);
    }
    if (set.empty()) break;
  }
  return out;
}

}  // namespace

// ---- QuickSI ------------------------------------------------------------------

std::unique_ptr<FilterData> QuickSiMatcher::Filter(const Graph& query,
                                                   const Graph& data) const {
  SGQ_CHECK_GT(query.NumVertices(), 0u);
  return LabelDegreeFilter(query, data);
}

EnumerateResult QuickSiMatcher::Enumerate(const Graph& query,
                                          const Graph& data,
                                          const FilterData& data_aux,
                                          uint64_t limit,
                                          DeadlineChecker* checker,
                                          const EmbeddingCallback& callback)
    const {
  if (!data_aux.Passed() || limit == 0) return {};
  // QI-sequence: Prim-style growth starting from the vertex whose label is
  // rarest in the data graph, always expanding to the frontier vertex with
  // the rarest label (ties: higher degree, then smaller id).
  const uint32_t n = query.NumVertices();
  auto freq = [&](VertexId u) {
    return data.NumVerticesWithLabel(query.label(u));
  };
  std::vector<VertexId> order;
  std::vector<bool> selected(n, false);
  VertexId start = 0;
  for (VertexId u = 1; u < n; ++u) {
    if (freq(u) < freq(start) ||
        (freq(u) == freq(start) && query.degree(u) > query.degree(start))) {
      start = u;
    }
  }
  order.push_back(start);
  selected[start] = true;
  while (order.size() < n) {
    VertexId best = kInvalidVertex;
    for (VertexId u = 0; u < n; ++u) {
      if (selected[u]) continue;
      bool frontier = false;
      for (VertexId w : query.Neighbors(u)) frontier |= selected[w];
      if (!frontier) continue;
      if (best == kInvalidVertex || freq(u) < freq(best) ||
          (freq(u) == freq(best) && query.degree(u) > query.degree(best))) {
        best = u;
      }
    }
    SGQ_CHECK_NE(best, kInvalidVertex) << "query must be connected";
    order.push_back(best);
    selected[best] = true;
  }
  return BacktrackOverCandidates(query, data, data_aux.phi, order, limit,
                                 checker, callback);
}

}  // namespace sgq
