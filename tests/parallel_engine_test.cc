#include "query/parallel_vcfv_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "matching/cfql.h"
#include "query/engine_factory.h"
#include "query/result_sink.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace sgq {
namespace {

GraphDatabase MakeDb(uint64_t seed, uint32_t graphs) {
  SyntheticParams params;
  params.num_graphs = graphs;
  params.vertices_per_graph = 25;
  params.degree = 3.5;
  params.num_labels = 5;
  params.seed = seed;
  return GenerateSyntheticDatabase(params);
}

TEST(ParallelVcfvTest, AgreesWithSerialCfql) {
  const GraphDatabase db = MakeDb(1, 60);
  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParallelVcfvEngine parallel(
        "CFQL-parallel", [] { return std::make_unique<CfqlMatcher>(); },
        threads);
    ASSERT_TRUE(parallel.Prepare(db, Deadline::Infinite()));
    Rng rng(7);
    for (int trial = 0; trial < 8; ++trial) {
      Graph q;
      if (!GenerateQuery(db, QueryKind::kSparse, 6, &rng, &q)) continue;
      const QueryResult expected = serial->Query(q);
      const QueryResult actual = parallel.Query(q, Deadline::Infinite());
      EXPECT_EQ(actual.answers, expected.answers)
          << threads << " threads, trial " << trial;
      EXPECT_EQ(actual.stats.num_candidates, expected.stats.num_candidates);
      EXPECT_FALSE(actual.stats.timed_out);
    }
  }
}

TEST(ParallelVcfvTest, AnswersSortedAndStatsConsistent) {
  const GraphDatabase db = MakeDb(2, 40);
  auto engine = MakeEngine("CFQL-parallel");
  ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
  Rng rng(9);
  Graph q;
  ASSERT_TRUE(GenerateQuery(db, QueryKind::kDense, 6, &rng, &q));
  const QueryResult r = engine->Query(q);
  EXPECT_TRUE(std::is_sorted(r.answers.begin(), r.answers.end()));
  EXPECT_EQ(r.stats.num_answers, r.answers.size());
  EXPECT_LE(r.stats.num_answers, r.stats.num_candidates);
  EXPECT_GE(r.stats.filtering_ms, 0.0);
  EXPECT_GE(r.stats.verification_ms, 0.0);
  EXPECT_EQ(engine->IndexMemoryBytes(), 0u);
}

class CollectSink : public ResultSink {
 public:
  bool OnAnswer(GraphId id) override {
    ids.push_back(id);
    return true;
  }
  std::vector<GraphId> ids;
};

// A complete bipartite graph K_{m,m}, every vertex labelled 0: it holds no
// odd cycle, yet every vertex passes LDF/NLF/CFL for a 7-cycle query, so
// the verification backtracks through ~2m * m^5 search nodes — far longer
// than the test's deadline.
Graph CompleteBipartite(uint32_t m) {
  GraphBuilder builder;
  for (uint32_t i = 0; i < 2 * m; ++i) builder.AddVertex(0);
  for (VertexId a = 0; a < m; ++a) {
    for (VertexId b = m; b < 2 * m; ++b) builder.AddEdge(a, b);
  }
  return builder.Build();
}

TEST(ParallelVcfvTest, TimeoutMidScanKeepsConfirmedAnswers) {
  // Cheap graphs first (7-cycles match, 7-paths do not), the hopeless
  // K_{30,30} last: every cheap graph is claimed before the heavy one, so
  // the scan confirms all cheap answers and then times out inside the
  // heavy graph's verification.
  using ::sgq::testing::MakeCycle;
  using ::sgq::testing::MakePath;
  GraphDatabase db;
  std::vector<GraphId> expected;
  for (GraphId g = 0; g < 24; ++g) {
    if (g % 3 == 0) {
      db.Add(MakePath({0, 0, 0, 0, 0, 0, 0}));
    } else {
      db.Add(MakeCycle({0, 0, 0, 0, 0, 0, 0}));
      expected.push_back(g);
    }
  }
  db.Add(CompleteBipartite(30));
  const Graph query = MakeCycle({0, 0, 0, 0, 0, 0, 0});

  ParallelVcfvEngine engine(
      "CFQL-parallel", [] { return std::make_unique<CfqlMatcher>(); },
      /*num_threads=*/2, /*chunk_size=*/1);
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));

  const QueryResult batch = engine.Query(query, Deadline::AfterSeconds(0.5));
  EXPECT_TRUE(batch.stats.timed_out);
  EXPECT_EQ(batch.answers, expected);
  EXPECT_EQ(batch.stats.num_answers, expected.size());
  // No candidate was skipped: the heavy graph's aborted test counts too.
  EXPECT_EQ(batch.stats.si_tests, batch.stats.num_candidates);
  EXPECT_GT(batch.stats.num_candidates, expected.size());

  // The sink path shares the scan: it streams the same confirmed answers.
  CollectSink sink;
  const QueryResult streamed =
      engine.Query(query, Deadline::AfterSeconds(0.5), &sink);
  EXPECT_TRUE(streamed.stats.timed_out);
  EXPECT_EQ(sink.ids, expected);
  EXPECT_EQ(streamed.answers, expected);
}

TEST(ParallelVcfvTest, DefaultsToHardwareConcurrency) {
  ParallelVcfvEngine engine("p",
                            [] { return std::make_unique<CfqlMatcher>(); });
  EXPECT_GE(engine.num_threads(), 1u);
}

}  // namespace
}  // namespace sgq
