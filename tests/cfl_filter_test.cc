// Φ parity of CFL's filter, the candidate sets CFL and CFQL share. On
// seeded power-law graphs with seeded sparse and dense queries, under every
// CflOptions combination:
//   * CFQL's Φ equals the Φ of CFL's CPI;
//   * Φ with the vertex candidate index attached equals Φ without it;
//   * with bottom-up refinement on, every v ∈ Φ(u) has a neighbor in Φ(u')
//     for every query neighbor u' visited after u in the BFS tree's order;
//   * Φ equals a brute-force evaluation of its definition on graphs whose
//     |V| is not a multiple of 64, on dense queries, with a query label the
//     data lacks, and with one workspace reused across graphs of different
//     sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
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

// Φ by its definition, along the BFS tree the filter chose. Top-down, in
// visit order: v ∈ Φ(u) iff v has u's label, at least u's degree, (with
// NLF) a neighbor-label multiset containing u's, and, for every neighbor
// u' of u visited earlier, some neighbor in Φ(u'). Bottom-up, in reverse
// visit order: v stays iff, for every neighbor u' visited later, some
// neighbor of v is in Φ(u'). Every vertex of the data graph is tested, with
// no bucket, index or bitmap. Returns whether every set is non-empty.
bool ReferencePhi(const Graph& q, const Graph& g, const BfsTree& tree,
                  const CflOptions& options,
                  std::vector<std::vector<VertexId>>* phi) {
  const uint32_t n = q.NumVertices();
  std::vector<uint32_t> pos(n);
  for (uint32_t k = 0; k < n; ++k) pos[tree.order[k]] = k;
  const auto label_counts = [](std::span<const Label> labels) {
    std::map<Label, uint32_t> counts;
    for (Label l : labels) ++counts[l];
    return counts;
  };
  const auto has_neighbor_in = [&](VertexId v,
                                   const std::vector<VertexId>& set) {
    for (VertexId x : g.Neighbors(v)) {
      if (std::find(set.begin(), set.end(), x) != set.end()) return true;
    }
    return false;
  };
  phi->assign(n, {});
  for (uint32_t k = 0; k < n; ++k) {
    const VertexId u = tree.order[k];
    const auto query_counts = label_counts(q.NeighborLabels(u));
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (g.label(v) != q.label(u) || g.degree(v) < q.degree(u)) continue;
      if (options.use_nlf) {
        const auto data_counts = label_counts(g.NeighborLabels(v));
        bool contained = true;
        for (const auto& [l, c] : query_counts) {
          const auto it = data_counts.find(l);
          contained &= it != data_counts.end() && it->second >= c;
        }
        if (!contained) continue;
      }
      bool kept = true;
      for (VertexId uprime : q.Neighbors(u)) {
        if (pos[uprime] < k) kept &= has_neighbor_in(v, (*phi)[uprime]);
      }
      if (kept) (*phi)[u].push_back(v);
    }
  }
  if (options.refine_bottom_up) {
    for (uint32_t k = n; k-- > 0;) {
      const VertexId u = tree.order[k];
      for (VertexId uprime : q.Neighbors(u)) {
        if (pos[uprime] < k) continue;
        std::erase_if((*phi)[u], [&](VertexId v) {
          return !has_neighbor_in(v, (*phi)[uprime]);
        });
      }
    }
  }
  return std::all_of(phi->begin(), phi->end(),
                     [](const auto& set) { return !set.empty(); });
}

// Runs the Φ step on `data` through `ws` and checks it against
// ReferencePhi; returns the tree's largest backward-neighbor count when Φ
// passed (0 otherwise).
size_t ExpectReferencePhi(const Graph& q, const Graph& data,
                          const CflOptions& options, MatchWorkspace& ws,
                          const std::string& where) {
  BfsTree tree;
  CandidateSets phi;
  const bool passed = CflCandidatesInto(q, data, options, ws, &tree, &phi);
  std::vector<std::vector<VertexId>> expected;
  EXPECT_EQ(ReferencePhi(q, data, tree, options, &expected), passed) << where;
  if (!passed) return 0;
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    EXPECT_EQ(expected[u], phi.set(u)) << where << ", u=" << u;
  }
  // Every neighbor of order[k] that sits in order[0, k) is a backward one.
  size_t max_backward = 0;
  for (size_t k = 0; k < tree.order.size(); ++k) {
    const auto earlier = std::span(tree.order).first(k);
    size_t backward = 0;
    for (VertexId uprime : q.Neighbors(tree.order[k])) {
      backward += std::find(earlier.begin(), earlier.end(), uprime) !=
                  earlier.end();
    }
    max_backward = std::max(max_backward, backward);
  }
  return max_backward;
}

// |V| of 65, 127, 1000 and 4099 (none a multiple of 64), and a 200-vertex
// graph of average degree 24 over 2 labels whose dense queries give query
// vertices three and more backward neighbors.
const std::vector<Instance>& ReferenceInstances() {
  static const std::vector<Instance> instances = [] {
    std::vector<Instance> out;
    out.push_back(MakeInstance(
        {.num_vertices = 65, .avg_degree = 4.0, .num_labels = 2, .seed = 21},
        201));
    out.push_back(MakeInstance(
        {.num_vertices = 127, .avg_degree = 6.0, .num_labels = 3, .seed = 22},
        202));
    out.push_back(MakeInstance({.num_vertices = 1000,
                                .avg_degree = 8.0,
                                .num_labels = 6,
                                .seed = 23},
                               203));
    out.push_back(MakeInstance({.num_vertices = 4099,
                                .avg_degree = 8.0,
                                .num_labels = 12,
                                .seed = 24},
                               204));
    out.push_back(MakeInstance({.num_vertices = 200,
                                .avg_degree = 24.0,
                                .num_labels = 2,
                                .label_skew = 0.0,
                                .seed = 25},
                               205));
    return out;
  }();
  return instances;
}

TEST_P(CflFilterTest, PhiEqualsReferenceDefinition) {
  MatchWorkspace ws;  // one workspace for every graph size below
  size_t passed = 0;
  size_t dense_backward = 0;
  for (size_t g = 0; g < ReferenceInstances().size(); ++g) {
    const Instance& inst = ReferenceInstances()[g];
    for (const Graph* data : {&inst.plain, &inst.indexed}) {
      for (size_t i = 0; i < inst.queries.size(); ++i) {
        const size_t backward = ExpectReferencePhi(
            inst.queries[i], *data, GetParam(), ws,
            "graph " + std::to_string(g) + ", query " + std::to_string(i) +
                (data == &inst.indexed ? ", indexed" : ""));
        passed += backward > 0;
        if (backward >= 3) ++dense_backward;
      }
    }
  }
  EXPECT_GT(passed, 0u);
  EXPECT_GT(dense_backward, 0u) << "no query vertex had 3 backward neighbors";
}

// Φ must come out empty (and the filter fail) wherever a query vertex's
// label does not occur in the data, whichever vertex carries it and
// whether or not it becomes the root.
TEST_P(CflFilterTest, AbsentQueryLabelFailsLikeReference) {
  MatchWorkspace ws;
  const Instance& inst = ReferenceInstances()[2];
  constexpr Label kAbsent = 1000;
  for (size_t i = 0; i < inst.queries.size(); ++i) {
    const Graph& q = inst.queries[i];
    for (VertexId relabelled = 0; relabelled < q.NumVertices();
         ++relabelled) {
      GraphBuilder builder;
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        builder.AddVertex(u == relabelled ? kAbsent : q.label(u));
      }
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        for (VertexId x : q.Neighbors(u)) {
          if (u < x) builder.AddEdge(u, x);
        }
      }
      const Graph absent = builder.Build();
      for (const Graph* data : {&inst.plain, &inst.indexed}) {
        const std::string where = "query " + std::to_string(i) +
                                  ", vertex " + std::to_string(relabelled);
        EXPECT_EQ(ExpectReferencePhi(absent, *data, GetParam(), ws, where),
                  0u)
            << where;
      }
    }
  }
}

// One workspace alternating between the largest and the smallest graph,
// query by query: bits the large graph set above the small graph's |V|,
// or inside it, must not leak into the small graph's Φ, nor back.
TEST_P(CflFilterTest, WorkspaceReusedAcrossGraphSizes) {
  MatchWorkspace ws;
  const Instance& big = ReferenceInstances()[3];
  const Instance& small = ReferenceInstances()[0];
  ASSERT_GT(big.plain.NumVertices(), small.plain.NumVertices());
  const size_t rounds = std::max(big.queries.size(), small.queries.size());
  for (size_t i = 0; i < rounds; ++i) {
    for (const Instance* inst : {&big, &small}) {
      const Graph& q = inst->queries[i % inst->queries.size()];
      for (const Graph* data : {&inst->plain, &inst->indexed}) {
        ExpectReferencePhi(q, *data, GetParam(), ws,
                           "|V|=" + std::to_string(data->NumVertices()) +
                               ", query " + std::to_string(i));
      }
    }
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
