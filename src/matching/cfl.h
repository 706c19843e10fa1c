// CFL [1] as a preprocessing-enumeration matcher (Section III-B).
//
// Filter, in two steps:
//   * the Φ step (CflCandidatesInto): build a BFS tree q_t of the query
//     rooted at the core vertex minimizing |candidates| / degree, then
//       (1) top-down candidate generation level by level with backward
//           pruning on all edges to already-processed vertices, and
//       (2) bottom-up refinement along q_t,
//     producing a complete candidate vertex set Φ. CFQL runs this step
//     alone: GraphQL's enumeration reads nothing but Φ.
//   * the CPI step (CFL only): candidate adjacency along the tree edges and
//     the path-based matching order, which with Φ make up the CPI.
//
// Enumerate: backtracking along the path-based order, which prioritizes
// the 2-core of the query and cheap (low estimated cardinality) tree
// paths; candidates of a non-root vertex are drawn from the CPI children
// of its parent's image, with non-tree edges checked against the data
// graph.
#ifndef SGQ_MATCHING_CFL_H_
#define SGQ_MATCHING_CFL_H_

#include <memory>
#include <vector>

#include "graph/graph_utils.h"
#include "matching/matcher.h"

namespace sgq {

struct CflOptions {
  // Neighbor-label-frequency check during candidate generation.
  bool use_nlf = true;
  // Bottom-up refinement pass (ablation knob).
  bool refine_bottom_up = true;
};

// The CPI: Φ plus candidate adjacency along BFS-tree edges.
struct CpiData : public FilterData {
  BfsTree tree;
  // children[u][i] lists, for the i-th candidate of u's tree parent, the
  // *indices into phi.set(u)* of candidates adjacent to it. Empty for the
  // root.
  std::vector<std::vector<std::vector<uint32_t>>> children;
  // Path-based matching order; tree parents always precede children.
  std::vector<VertexId> matching_order;

 protected:
  size_t Footprint(bool retained) const override;
};

// The Φ step of CFL's filter: fills `phi` (recycling its buffers) and
// `tree`, the BFS tree Φ was built along, drawing |V(G)|-sized scratch from
// `ws`. Returns false as soon as some Φ(u) comes out empty; later sets are
// then left unfilled. Each Φ(u) is sorted ascending.
bool CflCandidatesInto(const Graph& query, const Graph& data,
                       const CflOptions& options, MatchWorkspace& ws,
                       BfsTree* tree, CandidateSets* phi);

class CflMatcher : public Matcher {
 public:
  explicit CflMatcher(CflOptions options = {}) : options_(options) {}

  const char* name() const override { return "CFL"; }

  std::unique_ptr<FilterData> Filter(const Graph& query,
                                     const Graph& data) const override;
  FilterData* Filter(const Graph& query, const Graph& data,
                     MatchWorkspace* ws) const override;

  EnumerateResult Enumerate(const Graph& query, const Graph& data,
                            const FilterData& data_aux, uint64_t limit,
                            DeadlineChecker* checker,
                            const EmbeddingCallback& callback =
                                nullptr) const override;
  EnumerateResult Enumerate(const Graph& query, const Graph& data,
                            const FilterData& data_aux, uint64_t limit,
                            DeadlineChecker* checker, MatchWorkspace* ws,
                            const EmbeddingCallback& callback =
                                nullptr) const override;

  const CflOptions& options() const { return options_; }

 private:
  // The Φ step, then the CPI step: fills `out` in place (recycling its
  // nested buffers), drawing |V(G)|-sized scratch from `ws`.
  void FilterInto(const Graph& query, const Graph& data, MatchWorkspace& ws,
                  CpiData* out) const;

  CflOptions options_;
};

}  // namespace sgq

#endif  // SGQ_MATCHING_CFL_H_
