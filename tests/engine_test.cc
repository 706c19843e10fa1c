// Engine-level tests: all eight competing algorithms (plus the naive
// VF2-scan baseline) must return identical answer sets on randomized
// databases, and their stats must satisfy the paper's structural invariants
// (|A| <= |C| <= |D|, vcFV has zero index memory, timeouts reported).
#include "query/engine_factory.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "graph/graph_utils.h"
#include "matching/brute_force.h"
#include "matching/matcher.h"
#include "matching/workspace.h"
#include "query/stats.h"
#include "tests/test_util.h"
#include "util/intersect.h"
#include "util/rng.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeCycle;
using ::sgq::testing::MakeGraph;
using ::sgq::testing::MakePath;

GraphDatabase TinyDatabase() {
  GraphDatabase db;
  db.Add(MakePath({0, 1, 2}));
  db.Add(MakeCycle({0, 1, 2}));
  db.Add(MakeGraph({0, 1, 2, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  db.Add(MakePath({2, 1, 0, 1}));
  return db;
}

class EngineTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<QueryEngine> engine_ = MakeEngine(GetParam());
};

TEST_P(EngineTest, AnswersMatchBruteForceOnTinyDatabase) {
  const GraphDatabase db = TinyDatabase();
  ASSERT_TRUE(engine_->Prepare(db, Deadline::Infinite()));
  for (const Graph& q : {MakePath({0, 1}), MakePath({1, 2}),
                         MakeCycle({0, 1, 2}), MakePath({0, 1, 2})}) {
    std::vector<GraphId> expected;
    for (GraphId g = 0; g < db.size(); ++g) {
      if (BruteForceContains(q, db.graph(g))) expected.push_back(g);
    }
    const QueryResult result = engine_->Query(q);
    EXPECT_EQ(result.answers, expected) << GetParam();
    EXPECT_FALSE(result.stats.timed_out);
    EXPECT_EQ(result.stats.num_answers, expected.size());
    EXPECT_GE(result.stats.num_candidates, expected.size());
    EXPECT_LE(result.stats.num_candidates, db.size());
  }
}

TEST_P(EngineTest, NoAnswersForForeignLabels) {
  const GraphDatabase db = TinyDatabase();
  ASSERT_TRUE(engine_->Prepare(db, Deadline::Infinite()));
  const QueryResult result = engine_->Query(MakePath({17, 18}));
  EXPECT_TRUE(result.answers.empty());
}

TEST_P(EngineTest, StatsAreInternallyConsistent) {
  const GraphDatabase db = TinyDatabase();
  ASSERT_TRUE(engine_->Prepare(db, Deadline::Infinite()));
  const QueryResult r = engine_->Query(MakePath({0, 1}));
  EXPECT_GE(r.stats.filtering_ms, 0.0);
  EXPECT_GE(r.stats.verification_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.stats.QueryMs(),
                   r.stats.filtering_ms + r.stats.verification_ms);
  EXPECT_LE(r.stats.si_tests, r.stats.num_candidates);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineTest,
    ::testing::Values("CT-Index", "Grapes", "GGSX", "GraphGrep", "CFL",
                      "GraphQL", "CFQL", "vcGrapes", "vcGGSX", "VF2-scan"),
    [](const auto& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(EngineAgreementTest, AllEnginesAgreeOnRandomizedDatabases) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    SyntheticParams params;
    params.num_graphs = 30;
    params.vertices_per_graph = 25;
    params.degree = 3.5;
    params.num_labels = 5;
    params.seed = seed;
    const GraphDatabase db = GenerateSyntheticDatabase(params);

    std::vector<std::unique_ptr<QueryEngine>> engines;
    for (const std::string& name : KnownEngineNames()) {
      engines.push_back(MakeEngine(name));
      ASSERT_TRUE(engines.back()->Prepare(db, Deadline::Infinite()));
    }
    auto baseline = MakeEngine("VF2-scan");
    ASSERT_TRUE(baseline->Prepare(db, Deadline::Infinite()));

    Rng rng(seed);
    for (int trial = 0; trial < 6; ++trial) {
      Graph q;
      const QueryKind kind =
          trial % 2 == 0 ? QueryKind::kSparse : QueryKind::kDense;
      if (!GenerateQuery(db, kind, 4 + 2 * (trial % 3), &rng, &q)) continue;
      const QueryResult expected = baseline->Query(q);
      ASSERT_FALSE(expected.stats.timed_out);
      for (const auto& engine : engines) {
        const QueryResult r = engine->Query(q);
        EXPECT_EQ(r.answers, expected.answers)
            << engine->name() << " disagrees, seed " << seed << " trial "
            << trial;
        // Filtering soundness: C(q) can only shrink verification work, so
        // candidate counts are bounded by |D| and bounded below by |A|.
        EXPECT_GE(r.stats.num_candidates, r.answers.size());
      }
    }
  }
}

// Pins what |C(q)| and the workspace counters mean for each family, which
// Equation 1's precision and the EXPERIMENTS.md figures read: IFV's
// candidates are the index survivors, vcFV's and IvcFV's the graphs whose
// Φ passed the matcher's filter, VF2-scan's the whole database.
TEST(EngineFamilyStatsTest, CandidateCountsFollowEachFamily) {
  SyntheticParams params;
  params.num_graphs = 30;
  params.vertices_per_graph = 20;
  params.degree = 3.0;
  params.num_labels = 5;
  params.seed = 404;
  const GraphDatabase db = GenerateSyntheticDatabase(params);
  std::vector<Graph> queries;
  Rng rng(405);
  for (int attempt = 0; attempt < 200 && queries.size() < 8; ++attempt) {
    Graph q;
    const QueryKind kind =
        queries.size() % 2 == 0 ? QueryKind::kSparse : QueryKind::kDense;
    if (GenerateQuery(db, kind, 4 + 2 * (queries.size() % 3), &rng, &q)) {
      queries.push_back(std::move(q));
    }
  }
  ASSERT_EQ(queries.size(), 8u);

  const std::set<std::string> ifv = {"CT-Index", "Grapes", "GGSX",
                                     "GraphGrep", "MinedPath"};
  // results[name][i]: engine `name` on queries[i].
  std::map<std::string, std::vector<QueryResult>> results;
  for (const std::string& name : KnownEngineNames()) {
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite())) << name;
    for (const Graph& q : queries) {
      results[name].push_back(engine->Query(q));
      ASSERT_FALSE(results[name].back().stats.timed_out) << name;
    }
  }
  auto filter_calls = [](const QueryResult& r) {
    return r.stats.ws_filter_hits + r.stats.ws_filter_misses;
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "query " << i);
    const QueryResult& scan = results["VF2-scan"][i];
    EXPECT_EQ(scan.stats.num_candidates, db.size());
    for (const std::string& name : KnownEngineNames()) {
      const QueryResult& r = results[name][i];
      EXPECT_EQ(r.answers, scan.answers) << name;
      EXPECT_EQ(r.stats.si_tests, r.stats.num_candidates) << name;
      if (ifv.count(name) > 0 || name == "VF2-scan") {
        EXPECT_EQ(r.stats.aux_memory_bytes, 0u) << name;
        EXPECT_EQ(filter_calls(r), 0u) << name;
      }
    }
    EXPECT_EQ(filter_calls(results["CFQL"][i]), db.size());
    for (const auto& [ifv_name, ivcfv_name] :
         {std::pair<std::string, std::string>{"Grapes", "vcGrapes"},
          std::pair<std::string, std::string>{"GGSX", "vcGGSX"}}) {
      const QueryResult& index_only = results[ifv_name][i];
      const QueryResult& two_level = results[ivcfv_name][i];
      EXPECT_EQ(filter_calls(two_level), index_only.stats.num_candidates)
          << ivcfv_name;
      EXPECT_LE(two_level.stats.num_candidates,
                index_only.stats.num_candidates)
          << ivcfv_name;
      EXPECT_LE(two_level.stats.num_candidates,
                results["CFQL"][i].stats.num_candidates)
          << ivcfv_name;
    }
  }
}

// RAII guard: restores the process-wide extension path and SIMD flag so a
// failing assertion cannot leak a non-default configuration into later tests.
struct ExtensionPathGuard {
  const ExtensionPath saved_path = DefaultExtensionPath();
  const bool saved_simd = IntersectSimdEnabled();
  ~ExtensionPathGuard() {
    SetDefaultExtensionPath(saved_path);
    SetIntersectSimdEnabled(saved_simd);
  }
};

TEST(ExtensionPathDeterminismTest, EnginesAgreeAcrossPathsAndSimd) {
  // The probe, intersection, and adaptive extension paths (with and without
  // the SIMD kernels) must be observationally identical through unmodified
  // engines: same answers, same candidate counts, same SI-test counts.
  ExtensionPathGuard guard;
  SyntheticParams params;
  params.num_graphs = 40;
  params.vertices_per_graph = 30;
  params.degree = 4.0;
  params.num_labels = 4;
  params.seed = 77;
  const GraphDatabase db = GenerateSyntheticDatabase(params);
  std::vector<Graph> queries;
  Rng rng(55);
  while (queries.size() < 5) {
    Graph q;
    if (GenerateQuery(db, queries.size() % 2 == 0 ? QueryKind::kSparse
                                                  : QueryKind::kDense,
                      6, &rng, &q)) {
      queries.push_back(std::move(q));
    }
  }

  struct Config {
    ExtensionPath path;
    bool simd;
    const char* name;
  };
  const Config configs[] = {
      {ExtensionPath::kProbe, true, "probe"},
      {ExtensionPath::kIntersect, true, "intersect"},
      {ExtensionPath::kAdaptive, true, "adaptive"},
      {ExtensionPath::kIntersect, false, "intersect-scalar"},
      {ExtensionPath::kAdaptive, false, "adaptive-scalar"},
  };
  for (const std::string& engine_name :
       {std::string("GraphQL"), std::string("CFQL")}) {
    std::vector<QueryResult> expected;
    for (const Config& config : configs) {
      SetDefaultExtensionPath(config.path);
      SetIntersectSimdEnabled(config.simd);
      auto engine = MakeEngine(engine_name);
      ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
      for (size_t i = 0; i < queries.size(); ++i) {
        const QueryResult r = engine->Query(queries[i]);
        if (expected.size() <= i) {
          expected.push_back(r);
          continue;
        }
        SCOPED_TRACE(::testing::Message() << engine_name << " config="
                                          << config.name << " query=" << i);
        EXPECT_EQ(r.answers, expected[i].answers);
        EXPECT_EQ(r.stats.num_candidates, expected[i].stats.num_candidates);
        EXPECT_EQ(r.stats.si_tests, expected[i].stats.si_tests);
      }
    }
  }
}

TEST(ExtensionPathDeterminismTest, EmbeddingsAndFirstMappingBitIdentical) {
  // Stronger than answer-set equality: full embedding counts, the first
  // embedding's mapping, and the visited search-tree size must match across
  // every path/SIMD combination.
  ExtensionPathGuard guard;
  Rng rng(121);
  std::vector<Label> labels = {0, 1, 2};
  for (int trial = 0; trial < 10; ++trial) {
    const Graph q = GenerateRandomGraph(5, 2.0, labels, &rng);
    if (!IsConnected(q)) continue;
    const Graph g = GenerateRandomGraph(60, 5.0, labels, &rng);
    CandidateSets phi(q.NumVertices());
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.label(v) == q.label(u)) phi.mutable_set(u).push_back(v);
      }
    }
    if (!phi.AllNonEmpty()) continue;
    const std::vector<VertexId> order = JoinBasedOrder(q, phi);

    struct Run {
      EnumerateResult result;
      std::vector<VertexId> first_mapping;
      std::vector<std::vector<VertexId>> all;
    };
    auto run_path = [&](ExtensionPath path, bool simd) {
      SetIntersectSimdEnabled(simd);
      Run run;
      MatchWorkspace ws;
      run.result = BacktrackOverCandidates(
          q, g, phi, order, UINT64_MAX, nullptr,
          [&](const std::vector<VertexId>& m) {
            if (run.all.empty()) run.first_mapping = m;
            run.all.push_back(m);
            return true;
          },
          &ws, path);
      return run;
    };

    const Run probe = run_path(ExtensionPath::kProbe, true);
    for (const auto& [path, simd] :
         {std::pair{ExtensionPath::kIntersect, true},
          std::pair{ExtensionPath::kIntersect, false},
          std::pair{ExtensionPath::kAdaptive, true},
          std::pair{ExtensionPath::kAdaptive, false}}) {
      const Run other = run_path(path, simd);
      SCOPED_TRACE(::testing::Message()
                   << "trial=" << trial << " path=" << static_cast<int>(path)
                   << " simd=" << simd);
      EXPECT_EQ(other.result.embeddings, probe.result.embeddings);
      EXPECT_EQ(other.result.recursion_calls, probe.result.recursion_calls);
      EXPECT_EQ(other.first_mapping, probe.first_mapping);
      EXPECT_EQ(other.all, probe.all);  // same embeddings in the same order
    }
    // The intersection path must actually exercise the kernels somewhere in
    // this sweep (dense-enough queries have backward neighbors beyond the
    // tree edge), otherwise the comparison above is vacuous.
    const Run isect = run_path(ExtensionPath::kIntersect, true);
    if (q.NumEdges() >= q.NumVertices()) {
      EXPECT_GT(isect.result.intersect_calls, 0u);
    }
  }
}

TEST(EngineTimeoutTest, QueryTimesOutAndReportsIt) {
  // Dense unlabeled database: verification explodes for VF2-based engines.
  SyntheticParams params;
  params.num_graphs = 4;
  params.vertices_per_graph = 120;
  params.degree = 12.0;
  params.num_labels = 1;
  params.seed = 9;
  const GraphDatabase db = GenerateSyntheticDatabase(params);
  auto engine = MakeEngine("VF2-scan");
  ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
  Rng rng(1);
  Graph q;
  ASSERT_TRUE(GenerateQuery(db, QueryKind::kDense, 24, &rng, &q));
  const QueryResult r = engine->Query(q, Deadline::AfterSeconds(0.02));
  // Either it finished (fast machine / lucky query) or it reported timeout.
  if (r.stats.timed_out) {
    EXPECT_LE(r.answers.size(), db.size());
  }
}

TEST(EngineOotTest, IndexBuildOotPropagates) {
  SyntheticParams params;
  params.num_graphs = 20;
  params.vertices_per_graph = 80;
  params.degree = 24.0;
  params.num_labels = 1;
  params.seed = 10;
  const GraphDatabase db = GenerateSyntheticDatabase(params);
  for (const std::string& name :
       {std::string("Grapes"), std::string("GGSX"), std::string("CT-Index"),
        std::string("vcGrapes"), std::string("vcGGSX")}) {
    auto engine = MakeEngine(name);
    EXPECT_FALSE(engine->Prepare(db, Deadline::AfterSeconds(1e-4)))
        << name << " should report OOT";
  }
}

TEST(EngineMemoryTest, VcfvHasNoIndexMemory) {
  const GraphDatabase db = TinyDatabase();
  for (const std::string& name :
       {std::string("CFL"), std::string("GraphQL"), std::string("CFQL")}) {
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
    EXPECT_EQ(engine->IndexMemoryBytes(), 0u) << name;
    const QueryResult r = engine->Query(MakePath({0, 1}));
    EXPECT_GT(r.stats.aux_memory_bytes, 0u) << name;
  }
  for (const std::string& name :
       {std::string("Grapes"), std::string("GGSX"), std::string("CT-Index")}) {
    auto engine = MakeEngine(name);
    ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
    EXPECT_GT(engine->IndexMemoryBytes(), 0u) << name;
  }
}

TEST(EngineUpdateTest, VcfvAnswersStayCorrectAfterDatabaseChanges) {
  // The index-free selling point: updating D needs no rebuild for vcFV.
  GraphDatabase db = TinyDatabase();
  auto engine = MakeEngine("CFQL");
  ASSERT_TRUE(engine->Prepare(db, Deadline::Infinite()));
  const Graph q = MakePath({0, 1});

  const size_t before = engine->Query(q).answers.size();
  db.Add(MakePath({0, 1}));  // one more matching graph
  const size_t after = engine->Query(q).answers.size();
  EXPECT_EQ(after, before + 1);

  db.Remove(static_cast<GraphId>(db.size() - 1));
  EXPECT_EQ(engine->Query(q).answers.size(), before);
}

TEST(SummarizeTest, AggregatesPerPaperFormulas) {
  std::vector<QueryResult> results(2);
  results[0].stats.filtering_ms = 2;
  results[0].stats.verification_ms = 8;
  results[0].stats.num_candidates = 4;
  results[0].stats.num_answers = 2;
  results[1].stats.filtering_ms = 4;
  results[1].stats.verification_ms = 0;
  results[1].stats.num_candidates = 0;  // precision contribution: 1.0
  results[1].stats.num_answers = 0;
  results[1].stats.timed_out = true;

  const QuerySetSummary s = Summarize(results, /*timeout_ms=*/100);
  EXPECT_EQ(s.num_queries, 2u);
  EXPECT_EQ(s.num_timeouts, 1u);
  EXPECT_DOUBLE_EQ(s.avg_filtering_ms, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_verification_ms, 4.0);
  // Query time: (2+8) for the first, 100 (the limit) for the timed-out one.
  EXPECT_DOUBLE_EQ(s.avg_query_ms, 55.0);
  EXPECT_DOUBLE_EQ(s.filtering_precision, (0.5 + 1.0) / 2);
  EXPECT_DOUBLE_EQ(s.avg_candidates, 2.0);
  EXPECT_DOUBLE_EQ(s.per_si_test_ms, 1.0);  // (8/4 + 0)/2
}

}  // namespace
}  // namespace sgq
