// TurboIso [11] as a preprocessing-enumeration matcher (Section II-B2).
//
// Filter ("candidate region exploration"): pick the start query vertex u*
// minimizing freq(G, L(u)) / d(u); build a BFS tree q_t of the query rooted
// at u*; for every data-vertex candidate v of u*, explore the candidate
// region CR(v) — per query vertex, the data vertices reachable consistently
// with q_t from v (with LDF/NLF and backward-edge pruning). Regions that
// leave some query vertex empty are discarded. The union of the regions is
// a complete candidate vertex set Φ, so TurboIso drops into the vcFV
// framework like CFL and GraphQL.
//
// Enumerate: per region, backtracking along a path-based order computed
// from the region's candidate cardinalities (cheapest root-to-leaf paths
// first, parents always before children).
//
// Documented simplification (DESIGN.md §4): the NEC query rewriting of the
// original — merging neighborhood-equivalent query vertices — is omitted;
// it accelerates queries with many equivalent vertices but does not change
// the result set.
#ifndef SGQ_MATCHING_TURBOISO_H_
#define SGQ_MATCHING_TURBOISO_H_

#include <memory>
#include <vector>

#include "graph/graph_utils.h"
#include "matching/matcher.h"

namespace sgq {

struct TurboIsoOptions {
  bool use_nlf = true;
};

// One candidate region: candidate sets scoped to embeddings that map the
// BFS-tree root to `root_candidate`.
struct CandidateRegion {
  VertexId root_candidate = kInvalidVertex;
  // Per query vertex (by id), sorted candidates within this region.
  std::vector<std::vector<VertexId>> candidates;
};

struct TurboIsoData : public FilterData {
  BfsTree tree;
  std::vector<CandidateRegion> regions;

 protected:
  size_t Footprint(bool retained) const override;
};

class TurboIsoMatcher : public Matcher {
 public:
  explicit TurboIsoMatcher(TurboIsoOptions options = {})
      : options_(options) {}

  const char* name() const override { return "TurboIso"; }

  std::unique_ptr<FilterData> Filter(const Graph& query,
                                     const Graph& data) const override;

  EnumerateResult Enumerate(const Graph& query, const Graph& data,
                            const FilterData& data_aux, uint64_t limit,
                            DeadlineChecker* checker,
                            const EmbeddingCallback& callback =
                                nullptr) const override;

 private:
  TurboIsoOptions options_;
};

}  // namespace sgq

#endif  // SGQ_MATCHING_TURBOISO_H_
