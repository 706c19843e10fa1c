// Direct-enumeration subgraph isomorphism (Section II-B2): QuickSI [28].
// Like VF2 it builds no auxiliary structure; its Filter() is just the
// per-vertex label/degree candidate computation it performs at search
// start, so it slots into the Matcher interface for side-by-side comparison
// with the preprocessing-enumeration algorithms.
#ifndef SGQ_MATCHING_DIRECT_ENUMERATION_H_
#define SGQ_MATCHING_DIRECT_ENUMERATION_H_

#include <memory>

#include "matching/matcher.h"

namespace sgq {

// QuickSI: orders query vertices by a rare-label-first Prim-style spanning
// sequence (the QI-sequence; edge weights favor infrequent labels), then
// runs plain connected backtracking over label candidates.
class QuickSiMatcher : public Matcher {
 public:
  const char* name() const override { return "QuickSI"; }

  std::unique_ptr<FilterData> Filter(const Graph& query,
                                     const Graph& data) const override;

  EnumerateResult Enumerate(const Graph& query, const Graph& data,
                            const FilterData& data_aux, uint64_t limit,
                            DeadlineChecker* checker,
                            const EmbeddingCallback& callback =
                                nullptr) const override;
};

}  // namespace sgq

#endif  // SGQ_MATCHING_DIRECT_ENUMERATION_H_
