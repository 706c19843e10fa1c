#include "matching/cfql.h"

#include "matching/workspace.h"
#include "util/logging.h"

namespace sgq {

std::unique_ptr<FilterData> CfqlMatcher::Filter(const Graph& query,
                                                const Graph& data) const {
  auto out = std::make_unique<FilterData>();
  MatchWorkspace local;
  BfsTree tree;
  CflCandidatesInto(query, data, filter_options_, local, &tree, &out->phi);
  return out;
}

FilterData* CfqlMatcher::Filter(const Graph& query, const Graph& data,
                                MatchWorkspace* ws) const {
  SGQ_CHECK(ws != nullptr);
  FilterData* out = ws->AcquireFilterData<FilterData>();
  BfsTree tree;
  CflCandidatesInto(query, data, filter_options_, *ws, &tree, &out->phi);
  return out;
}

EnumerateResult CfqlMatcher::Enumerate(const Graph& query, const Graph& data,
                                       const FilterData& data_aux,
                                       uint64_t limit,
                                       DeadlineChecker* checker,
                                       const EmbeddingCallback& callback)
    const {
  if (!data_aux.Passed() || limit == 0) return {};
  const std::vector<VertexId> order = JoinBasedOrder(query, data_aux.phi);
  return BacktrackOverCandidates(query, data, data_aux.phi, order, limit,
                                 checker, callback);
}

EnumerateResult CfqlMatcher::Enumerate(const Graph& query, const Graph& data,
                                       const FilterData& data_aux,
                                       uint64_t limit,
                                       DeadlineChecker* checker,
                                       MatchWorkspace* ws,
                                       const EmbeddingCallback& callback)
    const {
  if (!data_aux.Passed() || limit == 0) return {};
  const std::vector<VertexId>& order =
      JoinBasedOrder(query, data_aux.phi, ws);
  return BacktrackOverCandidates(query, data, data_aux.phi, order, limit,
                                 checker, callback, ws);
}

}  // namespace sgq
