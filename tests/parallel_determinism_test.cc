// Satellite of the thread-pool PR: the parallel engine must be bit-for-bit
// deterministic. Answers, num_candidates and si_tests come from per-graph
// predicates that do not depend on how the scan is partitioned, so every
// (threads, chunk) combination must reproduce the serial vcFV result exactly.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "matching/cfql.h"
#include "matching/matcher.h"
#include "query/engine_factory.h"
#include "query/parallel_vcfv_engine.h"
#include "util/intersect.h"
#include "util/rng.h"

namespace sgq {
namespace {

GraphDatabase MakeDb(uint64_t seed, uint32_t graphs) {
  SyntheticParams params;
  params.num_graphs = graphs;
  params.vertices_per_graph = 30;
  params.degree = 3.0;
  params.num_labels = 4;
  params.seed = seed;
  return GenerateSyntheticDatabase(params);
}

std::vector<Graph> MakeQueries(const GraphDatabase& db, int count,
                               uint64_t seed) {
  std::vector<Graph> queries;
  Rng rng(seed);
  while (static_cast<int>(queries.size()) < count) {
    Graph q;
    if (GenerateQuery(db, queries.size() % 2 == 0 ? QueryKind::kSparse
                                                  : QueryKind::kDense,
                      6, &rng, &q)) {
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

TEST(ParallelDeterminismTest, MatchesSerialAcrossThreadAndChunkCounts) {
  const GraphDatabase db = MakeDb(11, 72);
  const std::vector<Graph> queries = MakeQueries(db, 6, 23);

  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  std::vector<QueryResult> expected;
  for (const Graph& q : queries) expected.push_back(serial->Query(q));

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (uint32_t chunk : {0u, 1u, 3u, 17u, 1000u}) {
      ParallelVcfvEngine parallel(
          "CFQL-parallel", [] { return std::make_unique<CfqlMatcher>(); },
          threads, chunk);
      ASSERT_TRUE(parallel.Prepare(db, Deadline::Infinite()));
      for (size_t i = 0; i < queries.size(); ++i) {
        const QueryResult actual =
            parallel.Query(queries[i], Deadline::Infinite());
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " chunk=" << chunk
                     << " query=" << i);
        // Byte-identical answer sets (both sorted GraphId vectors).
        EXPECT_EQ(actual.answers, expected[i].answers);
        // Identical filtering/verification work, not just identical answers.
        EXPECT_EQ(actual.stats.num_candidates,
                  expected[i].stats.num_candidates);
        EXPECT_EQ(actual.stats.si_tests, expected[i].stats.si_tests);
        EXPECT_EQ(actual.stats.num_answers, expected[i].stats.num_answers);
        EXPECT_FALSE(actual.stats.timed_out);
      }
    }
  }
}

TEST(ParallelDeterminismTest, RepeatedQueriesOnOneEngineAreStable) {
  // Workspace reuse must not leak state between queries: asking the same
  // engine the same queries twice (warm workspaces the second time) must
  // reproduce the cold-run results.
  const GraphDatabase db = MakeDb(5, 48);
  const std::vector<Graph> queries = MakeQueries(db, 4, 31);
  ParallelVcfvEngine engine(
      "CFQL-parallel", [] { return std::make_unique<CfqlMatcher>(); }, 4, 5);
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));

  std::vector<QueryResult> first;
  for (const Graph& q : queries) {
    first.push_back(engine.Query(q, Deadline::Infinite()));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult again = engine.Query(queries[i], Deadline::Infinite());
    SCOPED_TRACE(::testing::Message() << "query=" << i);
    EXPECT_EQ(again.answers, first[i].answers);
    EXPECT_EQ(again.stats.num_candidates, first[i].stats.num_candidates);
    EXPECT_EQ(again.stats.si_tests, first[i].stats.si_tests);
  }
}

TEST(ParallelDeterminismTest, ExtensionPathsAgreeUnderParallelism) {
  // The intersection-based extension step must not perturb parallel
  // determinism: every extension path (and the scalar-kernel fallback)
  // through the parallel engine reproduces the serial probe-path result.
  const ExtensionPath saved_path = DefaultExtensionPath();
  const bool saved_simd = IntersectSimdEnabled();
  const GraphDatabase db = MakeDb(19, 56);
  const std::vector<Graph> queries = MakeQueries(db, 4, 37);

  SetDefaultExtensionPath(ExtensionPath::kProbe);
  auto serial = MakeEngine("CFQL");
  ASSERT_TRUE(serial->Prepare(db, Deadline::Infinite()));
  std::vector<QueryResult> expected;
  for (const Graph& q : queries) expected.push_back(serial->Query(q));

  struct Config {
    ExtensionPath path;
    bool simd;
  };
  for (const Config& config :
       {Config{ExtensionPath::kIntersect, true},
        Config{ExtensionPath::kAdaptive, true},
        Config{ExtensionPath::kIntersect, false}}) {
    SetDefaultExtensionPath(config.path);
    SetIntersectSimdEnabled(config.simd);
    ParallelVcfvEngine parallel(
        "CFQL-parallel", [] { return std::make_unique<CfqlMatcher>(); }, 4, 3);
    ASSERT_TRUE(parallel.Prepare(db, Deadline::Infinite()));
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryResult actual =
          parallel.Query(queries[i], Deadline::Infinite());
      SCOPED_TRACE(::testing::Message()
                   << "path=" << static_cast<int>(config.path)
                   << " simd=" << config.simd << " query=" << i);
      EXPECT_EQ(actual.answers, expected[i].answers);
      EXPECT_EQ(actual.stats.num_candidates,
                expected[i].stats.num_candidates);
      EXPECT_EQ(actual.stats.si_tests, expected[i].stats.si_tests);
    }
  }
  SetDefaultExtensionPath(saved_path);
  SetIntersectSimdEnabled(saved_simd);
}

TEST(ParallelDeterminismTest, WorkspaceHitRateClimbsAfterWarmup) {
  const GraphDatabase db = MakeDb(7, 64);
  const std::vector<Graph> queries = MakeQueries(db, 3, 13);
  ParallelVcfvEngine engine(
      "CFQL-parallel", [] { return std::make_unique<CfqlMatcher>(); }, 4);
  ASSERT_TRUE(engine.Prepare(db, Deadline::Infinite()));

  // A slot allocates at most once over the engine's lifetime (its first
  // graph); every other Filter() is a hit. Which query a slot first
  // participates in depends on scheduling, so the bound is cumulative.
  uint64_t hits = 0, misses = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult r = engine.Query(queries[i], Deadline::Infinite());
    EXPECT_EQ(r.stats.ws_filter_hits + r.stats.ws_filter_misses,
              static_cast<uint64_t>(db.size()))
        << "query " << i;
    hits += r.stats.ws_filter_hits;
    misses += r.stats.ws_filter_misses;
  }
  EXPECT_GT(misses, 0u);  // the first graph of the first active slot
  // Slots = pool threads + the participating caller.
  EXPECT_LE(misses, engine.num_threads() + 1u);
  // The acceptance bar for the workload: >90% of Filter() calls recycled.
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.9);
}

}  // namespace
}  // namespace sgq
