// CFQL (Section III-B): the paper's hybrid vcFV algorithm — the Filter of
// CFL combined with the Verify of GraphQL (join-based ordering +
// backtracking over Φ), taking advantage of CFL's cheaper filtering and
// GraphQL's more robust ordering. GraphQL's enumeration reads only Φ, so
// the filter runs CFL's Φ step alone and builds none of the CPI.
#ifndef SGQ_MATCHING_CFQL_H_
#define SGQ_MATCHING_CFQL_H_

#include <memory>

#include "matching/cfl.h"
#include "matching/matcher.h"

namespace sgq {

class CfqlMatcher : public Matcher {
 public:
  explicit CfqlMatcher(CflOptions filter_options = {})
      : filter_options_(filter_options) {}

  const char* name() const override { return "CFQL"; }

  // CFL's Φ step (CflCandidatesInto) into a plain FilterData.
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

 private:
  CflOptions filter_options_;
};

}  // namespace sgq

#endif  // SGQ_MATCHING_CFQL_H_
