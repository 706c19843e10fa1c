// White-box tests of the direct-enumeration baseline QuickSI.
#include "matching/direct_enumeration.h"

#include <gtest/gtest.h>

#include "gen/graph_gen.h"
#include "graph/graph_utils.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeGraph;
using ::sgq::testing::MakePath;

TEST(QuickSiTest, OrderStartsAtRarestLabel) {
  // QuickSI's QI-sequence starts at the query vertex whose label is rarest
  // in the data graph. Verify indirectly: with a unique anchoring label the
  // search must touch at most a handful of nodes.
  const Graph q = MakePath({5, 0, 0});
  GraphBuilder b;
  b.AddVertex(5);
  for (int i = 0; i < 30; ++i) b.AddVertex(0);
  for (VertexId v = 0; v + 1 < 31; ++v) b.AddEdge(v, v + 1);
  const Graph g = b.Build();
  QuickSiMatcher matcher;
  const auto data = matcher.Filter(q, g);
  ASSERT_TRUE(data->Passed());
  const EnumerateResult r =
      matcher.Enumerate(q, g, *data, UINT64_MAX, nullptr);
  EXPECT_EQ(r.embeddings, 1u);  // 5-0-0 anchored at the unique 5
  // Anchored search visits a small frontier, not the whole path.
  EXPECT_LT(r.recursion_calls, 10u);
}

TEST(DirectEnumerationTest, DeadlineBoundsRuntime) {
  // Full enumeration over a dense unlabeled instance is astronomically
  // large; a millisecond deadline must bound the wall time.
  Rng rng(17);
  std::vector<Label> labels = {0};
  const Graph q = GenerateRandomGraph(10, 5.0, labels, &rng);
  const Graph g = GenerateRandomGraph(120, 8.0, labels, &rng);
  QuickSiMatcher matcher;
  const auto data = matcher.Filter(q, g);
  if (data->Passed()) {
    DeadlineChecker tight{Deadline::AfterSeconds(1e-3)};
    WallTimer timer;
    matcher.Enumerate(q, g, *data, UINT64_MAX, &tight);
    EXPECT_LT(timer.ElapsedSeconds(), 5.0);
  }
}

TEST(DirectEnumerationTest, SingleVertexQueries) {
  const Graph q = MakeGraph({3}, {});
  const Graph g = MakeGraph({3, 3, 0}, {{0, 1}, {1, 2}});
  QuickSiMatcher matcher;
  const auto data = matcher.Filter(q, g);
  ASSERT_TRUE(data->Passed());
  EXPECT_EQ(matcher.Enumerate(q, g, *data, UINT64_MAX, nullptr).embeddings,
            2u);
}

}  // namespace
}  // namespace sgq
