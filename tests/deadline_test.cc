// Regression test for the service-queue cancellation contract: Query() on
// an already-expired Deadline must report the OOT outcome immediately, for
// every engine type, without scanning the database. Before the fix, several
// engines processed at least the first graph (and IFV engines could scan
// the whole candidate list, because their DeadlineChecker only polls the
// clock every 1024 ticks).
#include <gtest/gtest.h>

#include "gen/graph_gen.h"
#include "matching/cfql.h"
#include "query/engine_factory.h"
#include "query/match_engine.h"
#include "tests/test_util.h"
#include "util/deadline.h"

namespace sgq {
namespace {

GraphDatabase SmallDb() {
  SyntheticParams params;
  params.num_graphs = 20;
  params.vertices_per_graph = 16;
  params.degree = 3.0;
  params.num_labels = 4;
  params.seed = 5;
  return GenerateSyntheticDatabase(params);
}

TEST(DeadlineTest, ExpiredDeadlineReturnsTimeoutWithoutScanning) {
  const GraphDatabase db = SmallDb();
  // A query that is a subgraph of at least one data graph (itself), so a
  // non-empty answer set would prove the engine scanned despite the
  // expired deadline.
  const Graph query = db.graph(0);
  for (const std::string& name : KnownEngineNames()) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
    const QueryResult expired =
        engine->Query(query, Deadline::AfterSeconds(-1));
    EXPECT_TRUE(expired.stats.timed_out);
    EXPECT_TRUE(expired.answers.empty());
    EXPECT_EQ(expired.stats.si_tests, 0u);
    EXPECT_EQ(expired.stats.num_candidates, 0u);

    // Sanity: the same engine does answer under an unexpired deadline.
    const QueryResult fine = engine->Query(query, Deadline::Infinite());
    EXPECT_FALSE(fine.stats.timed_out);
    EXPECT_FALSE(fine.answers.empty());
  }
}

TEST(DeadlineTest, AfterSecondsZeroCountsAsExpired) {
  const GraphDatabase db = SmallDb();
  auto engine = MakeEngine("CFQL");
  ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
  const QueryResult r = engine->Query(db.graph(0), Deadline::AfterSeconds(0));
  EXPECT_TRUE(r.stats.timed_out);
  EXPECT_TRUE(r.answers.empty());
}

TEST(DeadlineTest, MatchEngineHonorsExpiredDeadline) {
  const GraphDatabase db = SmallDb();
  MatchEngine engine(std::make_unique<CfqlMatcher>());
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));
  const MatchResult r = engine.Match(db.graph(0), MatchOptions{},
                                     Deadline::AfterSeconds(-1));
  EXPECT_TRUE(r.stats.timed_out);
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(r.stats.si_tests, 0u);
}

TEST(DeadlineTest, ExpiredPrepareStillFailsForIndexEngines) {
  const GraphDatabase db = SmallDb();
  for (const char* name : {"Grapes", "GGSX", "CT-Index"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name);
    EXPECT_FALSE(engine->Prepare(db, Deadline::AfterSeconds(-1)));
  }
}

}  // namespace
}  // namespace sgq
