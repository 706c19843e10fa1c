#include "query/engine_factory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "tests/test_util.h"

namespace sgq {
namespace {

TEST(EngineFactoryTest, PaperEngineListMatchesTableThree) {
  const auto& names = AllEngineNames();
  ASSERT_EQ(names.size(), 8u);
  // Table III order: IFV, then vcFV, then IvcFV.
  EXPECT_EQ(names[0], "CT-Index");
  EXPECT_EQ(names[1], "Grapes");
  EXPECT_EQ(names[2], "GGSX");
  EXPECT_EQ(names[3], "CFL");
  EXPECT_EQ(names[4], "GraphQL");
  EXPECT_EQ(names[5], "CFQL");
  EXPECT_EQ(names[6], "vcGrapes");
  EXPECT_EQ(names[7], "vcGGSX");
}

TEST(EngineFactoryTest, EveryAdvertisedEngineConstructs) {
  for (const char* name :
       {"CT-Index", "Grapes", "GGSX", "CFL", "GraphQL", "CFQL", "vcGrapes",
        "vcGGSX", "VF2-scan", "TurboIso", "QuickSI", "SPath", "GraphGrep",
        "MinedPath", "CFQL-parallel"}) {
    EXPECT_TRUE(IsKnownEngine(name)) << name;
    auto engine = MakeEngine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_STREQ(engine->name(), name);
  }
}

TEST(EngineFactoryTest, KnownEngineNamesListEachEngineOnceTableThreeFirst) {
  const std::vector<std::string>& known = KnownEngineNames();
  const std::vector<std::string>& paper = AllEngineNames();
  ASSERT_EQ(known.size(), 15u);
  EXPECT_TRUE(std::equal(paper.begin(), paper.end(), known.begin()));
  std::set<std::string> unique(known.begin(), known.end());
  EXPECT_EQ(unique.size(), known.size());
  for (const std::string& name : known) EXPECT_TRUE(IsKnownEngine(name));
}

TEST(EngineFactoryTest, RetiredEngineNamesAreUnknown) {
  // Engines that were deleted must be refused by the front ends' name
  // check, not reach the Fatal abort inside MakeEngine.
  for (const char* name : {"CFQL-parallel-intra", "Ullmann", "NoSuchEngine"}) {
    EXPECT_FALSE(IsKnownEngine(name)) << name;
  }
}

TEST(EngineFactoryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MakeEngine("NoSuchEngine"), "unknown engine");
}

TEST(EngineFactoryTest, ConfigReachesTheIndex) {
  // A tiny path-length config must change filtering behavior: with 1-edge
  // features only, a 2-edge path query cannot be distinguished from two
  // separate edges.
  GraphDatabase db;
  db.Add(sgq::testing::MakePath({0, 1, 2}));                   // has 0-1-2
  db.Add(sgq::testing::MakeGraph({0, 1, 2, 1},
                                 {{0, 1}, {2, 3}}));           // edges only
  const Graph q = sgq::testing::MakePath({0, 1, 2});

  EngineConfig shallow;
  shallow.max_path_edges = 1;
  auto weak = MakeEngine("Grapes", shallow);
  ASSERT_TRUE(weak->Prepare(db, Deadline::Infinite()));

  EngineConfig deep;
  deep.max_path_edges = 4;
  auto strong = MakeEngine("Grapes", deep);
  ASSERT_TRUE(strong->Prepare(db, Deadline::Infinite()));

  // Both answer correctly (filter soundness + verification)...
  EXPECT_EQ(weak->Query(q).answers, (std::vector<GraphId>{0}));
  EXPECT_EQ(strong->Query(q).answers, (std::vector<GraphId>{0}));
  // ...but the shallow index admits the decoy graph as a candidate.
  EXPECT_EQ(weak->Query(q).stats.num_candidates, 2u);
  EXPECT_EQ(strong->Query(q).stats.num_candidates, 1u);
}

TEST(EngineFactoryTest, MemoryLimitConfigPropagates) {
  GraphDatabase db;
  for (int i = 0; i < 10; ++i) {
    db.Add(sgq::testing::MakePath({0, 1, 2, 3, 0, 1, 2, 3}));
  }
  EngineConfig tiny;
  tiny.index_memory_limit_bytes = 64;  // nothing fits
  auto engine = MakeEngine("Grapes", tiny);
  EXPECT_FALSE(engine->Prepare(db, Deadline::Infinite()));
  EXPECT_EQ(engine->prepare_failure(), GraphIndex::BuildFailure::kMemory);
}

}  // namespace
}  // namespace sgq
