// Incremental index maintenance: after arbitrary interleavings of database
// Add/Remove mirrored into the index via AppendGraph/OnSwapRemove, every
// IFV index must keep the no-false-drop invariant and the IFV engines must
// agree with an index-free engine on the same (mutated) database — without
// any rebuild.
#include <gtest/gtest.h>

#include <memory>

#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "index/ct_index.h"
#include "index/ggsx_index.h"
#include "index/graphgrep_index.h"
#include "index/grapes_index.h"
#include "matching/brute_force.h"
#include "query/engine_factory.h"
#include "query/filter_verify_engine.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sgq {
namespace {

std::unique_ptr<GraphIndex> MakeIndex(const std::string& name) {
  if (name == "Grapes") return std::make_unique<GrapesIndex>();
  if (name == "GGSX") return std::make_unique<GgsxIndex>();
  if (name == "CT-Index") return std::make_unique<CtIndex>();
  if (name == "GraphGrep") return std::make_unique<GraphGrepIndex>();
  SGQ_LOG(Fatal) << "unknown index " << name;
  return nullptr;
}

GraphDatabase MakeDb(uint64_t seed, uint32_t graphs) {
  SyntheticParams params;
  params.num_graphs = graphs;
  params.vertices_per_graph = 16;
  params.degree = 2.5;
  params.num_labels = 3;
  params.seed = seed;
  return GenerateSyntheticDatabase(params);
}

class IndexUpdateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IndexUpdateTest, AppendOnlyMatchesFreshBuild) {
  // Build over the first half, append the second half one by one; the
  // filter must behave exactly like a fresh build over everything.
  GraphDatabase db = MakeDb(1, 20);
  GraphDatabase half;
  for (GraphId g = 0; g < 10; ++g) half.Add(db.graph(g));

  auto incremental = MakeIndex(GetParam());
  ASSERT_TRUE(incremental->Build(half, Deadline::Infinite()));
  for (GraphId g = 10; g < 20; ++g) {
    ASSERT_TRUE(
        incremental->AppendGraph(db.graph(g), Deadline::Infinite()));
  }
  auto fresh = MakeIndex(GetParam());
  ASSERT_TRUE(fresh->Build(db, Deadline::Infinite()));

  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Graph q;
    if (!GenerateQuery(db, QueryKind::kSparse, 4, &rng, &q)) continue;
    EXPECT_EQ(incremental->FilterCandidates(q), fresh->FilterCandidates(q))
        << GetParam() << " trial " << trial;
  }
}

TEST_P(IndexUpdateTest, RandomInterleavingKeepsNoFalseDrops) {
  GraphDatabase db = MakeDb(3, 15);
  auto index = MakeIndex(GetParam());
  ASSERT_TRUE(index->Build(db, Deadline::Infinite()));

  Rng rng(4);
  std::vector<Label> labels = {0, 1, 2};
  for (int step = 0; step < 60; ++step) {
    if (rng.NextBool(0.45) && db.size() > 2) {
      const GraphId victim =
          static_cast<GraphId>(rng.NextBounded(db.size()));
      ASSERT_TRUE(db.Remove(victim));
      index->OnSwapRemove(victim);
    } else {
      const GraphId id = db.Add(GenerateRandomGraph(
          14 + static_cast<uint32_t>(rng.NextBounded(6)), 2.5, labels,
          &rng));
      ASSERT_TRUE(
          index->AppendGraph(db.graph(id), Deadline::Infinite()));
    }
    ASSERT_EQ(index->NumLogicalGraphs(), db.size());

    if (step % 10 != 9) continue;  // validate every 10 steps
    Graph q;
    if (!GenerateQuery(db, QueryKind::kSparse, 4, &rng, &q)) continue;
    const auto candidates = index->FilterCandidates(q);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    for (GraphId g : candidates) EXPECT_LT(g, db.size());
    for (GraphId g = 0; g < db.size(); ++g) {
      if (BruteForceContains(q, db.graph(g))) {
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                       g))
            << GetParam() << " dropped " << g << " at step " << step;
      }
    }
  }
}

TEST_P(IndexUpdateTest, SaveRefusedAfterRemovals) {
  GraphDatabase db = MakeDb(5, 8);
  auto index = MakeIndex(GetParam());
  ASSERT_TRUE(index->Build(db, Deadline::Infinite()));
  db.Remove(2);
  index->OnSwapRemove(2);
  std::stringstream buffer;
  EXPECT_FALSE(index->SaveTo(buffer));
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexUpdateTest,
                         ::testing::Values("Grapes", "GGSX", "CT-Index", "GraphGrep"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(EngineUpdateConsistencyTest, IfvEngineTracksDatabaseWithoutRebuild) {
  GraphDatabase db = MakeDb(7, 20);
  FilterVerifyEngine grapes("Grapes", std::make_unique<GrapesIndex>(),
                            /*matcher=*/nullptr);
  ASSERT_TRUE(grapes.Prepare(db, Deadline::Infinite()));
  auto cfql = MakeEngine("CFQL");
  ASSERT_TRUE(cfql->Prepare(db, Deadline::Infinite()));

  Rng rng(8);
  std::vector<Label> labels = {0, 1, 2};
  for (int step = 0; step < 40; ++step) {
    if (rng.NextBool(0.4) && db.size() > 2) {
      const GraphId victim =
          static_cast<GraphId>(rng.NextBounded(db.size()));
      ASSERT_TRUE(db.Remove(victim));
      grapes.NotifyRemoved(victim);
    } else {
      const GraphId id = db.Add(GenerateRandomGraph(15, 2.5, labels, &rng));
      ASSERT_TRUE(grapes.NotifyAdded(id));
    }
    Graph q;
    if (!GenerateQuery(db, QueryKind::kSparse, 4, &rng, &q)) continue;
    EXPECT_EQ(grapes.Query(q, Deadline::Infinite()).answers,
              cfql->Query(q).answers)
        << "step " << step;
  }
}

}  // namespace
}  // namespace sgq
