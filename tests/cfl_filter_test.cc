// Φ parity of CFL's filter, the candidate sets CFL and CFQL share. On
// seeded power-law graphs with seeded sparse and dense queries, under every
// CflOptions combination:
//   * CFQL's Φ equals the Φ of CFL's CPI;
//   * Φ with the vertex candidate index attached equals Φ without it;
//   * with bottom-up refinement on, every v ∈ Φ(u) has a neighbor in Φ(u')
//     for every query neighbor u' visited after u in the BFS tree's order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/biggraph_gen.h"
#include "gen/query_gen.h"
#include "index/vertex_candidate_index.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/workspace.h"
#include "util/rng.h"

namespace sgq {
namespace {

// One data graph twice over, with and without the candidate index, plus
// queries drawn from it.
struct Instance {
  Graph plain;
  Graph indexed;
  std::vector<Graph> queries;
};

Instance MakeInstance(const PowerLawParams& params, uint64_t query_seed) {
  Instance inst;
  inst.plain = GeneratePowerLawGraph(params);
  inst.indexed = inst.plain;
  inst.indexed.SetCandidateIndex(VertexCandidateIndex::Build(inst.indexed));
  GraphDatabase db;
  db.Add(inst.plain);
  Rng rng(query_seed);
  for (QueryKind kind : {QueryKind::kSparse, QueryKind::kDense}) {
    for (uint32_t edges : {3u, 6u, 10u}) {
      for (int i = 0; i < 4; ++i) {
        Graph q;
        if (GenerateQuery(db, kind, edges, &rng, &q)) {
          inst.queries.push_back(std::move(q));
        }
      }
    }
  }
  return inst;
}

// Few labels (large, heavily pruned Φ), a moderate mix, and a graph the
// size of the massive-single-graph CI leg's.
const std::vector<Instance>& Instances() {
  static const std::vector<Instance> instances = [] {
    std::vector<Instance> out;
    out.push_back(MakeInstance({.num_vertices = 600,
                                .avg_degree = 6.0,
                                .num_labels = 3,
                                .label_skew = 0.5,
                                .seed = 11},
                               101));
    out.push_back(MakeInstance({.num_vertices = 3000,
                                .avg_degree = 10.0,
                                .num_labels = 8,
                                .label_skew = 1.0,
                                .seed = 12},
                               102));
    out.push_back(MakeInstance({.num_vertices = 16384,
                                .avg_degree = 8.0,
                                .num_labels = 24,
                                .label_skew = 1.0,
                                .seed = 13},
                               103));
    return out;
  }();
  return instances;
}

class CflFilterTest : public ::testing::TestWithParam<CflOptions> {};

std::string OptionsName(const ::testing::TestParamInfo<CflOptions>& info) {
  return std::string(info.param.use_nlf ? "Nlf" : "NoNlf") +
         (info.param.refine_bottom_up ? "BottomUp" : "TopDownOnly");
}

void ExpectSamePhi(const CandidateSets& expected, const CandidateSets& actual,
                   const std::string& where) {
  ASSERT_EQ(expected.NumQueryVertices(), actual.NumQueryVertices()) << where;
  for (VertexId u = 0; u < expected.NumQueryVertices(); ++u) {
    EXPECT_EQ(expected.set(u), actual.set(u)) << where << ", u=" << u;
  }
}

TEST_P(CflFilterTest, CfqlPhiEqualsCflCpiPhi) {
  const CflMatcher cfl(GetParam());
  const CfqlMatcher cfql(GetParam());
  MatchWorkspace ws;  // recycled across every query and graph below
  for (size_t g = 0; g < Instances().size(); ++g) {
    const Instance& inst = Instances()[g];
    for (const Graph* data : {&inst.plain, &inst.indexed}) {
      for (size_t i = 0; i < inst.queries.size(); ++i) {
        const Graph& q = inst.queries[i];
        const std::string where =
            "graph " + std::to_string(g) + ", query " + std::to_string(i);
        const auto cpi = cfl.Filter(q, *data);
        ASSERT_NE(dynamic_cast<const CpiData*>(cpi.get()), nullptr);
        const FilterData* phi = cfql.Filter(q, *data, &ws);
        ExpectSamePhi(cpi->phi, phi->phi, where);
        EXPECT_EQ(cpi->Passed(), phi->Passed()) << where;
        ExpectSamePhi(cpi->phi, cfql.Filter(q, *data)->phi, where);
      }
    }
  }
}

TEST_P(CflFilterTest, IndexedPhiEqualsUnindexedPhi) {
  const CflMatcher cfl(GetParam());
  const CfqlMatcher cfql(GetParam());
  MatchWorkspace ws;
  for (size_t g = 0; g < Instances().size(); ++g) {
    const Instance& inst = Instances()[g];
    for (size_t i = 0; i < inst.queries.size(); ++i) {
      const Graph& q = inst.queries[i];
      const std::string where =
          "graph " + std::to_string(g) + ", query " + std::to_string(i);
      const auto plain = cfl.Filter(q, inst.plain);
      ExpectSamePhi(plain->phi, cfl.Filter(q, inst.indexed)->phi, where);
      ExpectSamePhi(plain->phi, cfql.Filter(q, inst.indexed, &ws)->phi,
                    where);
    }
  }
}

void ExpectBottomUpRule(const CflMatcher& cfl) {
  uint64_t checked = 0;
  for (size_t g = 0; g < Instances().size(); ++g) {
    const Instance& inst = Instances()[g];
    for (size_t i = 0; i < inst.queries.size(); ++i) {
      const Graph& q = inst.queries[i];
      const auto data = cfl.Filter(q, inst.indexed);
      if (!data->Passed()) continue;
      const BfsTree& tree = dynamic_cast<const CpiData&>(*data).tree;
      std::vector<uint32_t> pos(q.NumVertices());
      for (uint32_t k = 0; k < tree.order.size(); ++k) pos[tree.order[k]] = k;
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        for (VertexId uprime : q.Neighbors(u)) {
          if (pos[uprime] < pos[u]) continue;
          for (VertexId v : data->phi.set(u)) {
            bool adjacent = false;
            for (VertexId w : inst.indexed.Neighbors(v)) {
              if (data->phi.Contains(uprime, w)) {
                adjacent = true;
                break;
              }
            }
            EXPECT_TRUE(adjacent)
                << "graph " << g << ", query " << i << ": v=" << v
                << " in Φ(" << u << ") has no neighbor in Φ(" << uprime
                << ")";
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(CflFilterBottomUpTest, EveryCandidateHasForwardNeighbors) {
  for (bool use_nlf : {true, false}) {
    ExpectBottomUpRule(
        CflMatcher({.use_nlf = use_nlf, .refine_bottom_up = true}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOptions, CflFilterTest,
    ::testing::Values(CflOptions{.use_nlf = true, .refine_bottom_up = true},
                      CflOptions{.use_nlf = true, .refine_bottom_up = false},
                      CflOptions{.use_nlf = false, .refine_bottom_up = true},
                      CflOptions{.use_nlf = false,
                                 .refine_bottom_up = false}),
    OptionsName);

}  // namespace
}  // namespace sgq
