// Exhaustive small-world cross-check: every connected labeled query on up
// to 4 vertices (enumerated systematically, not sampled) is matched by
// every matcher against a fixed battery of data graphs, and all counts
// must equal brute force. This complements the randomized sweeps with
// guaranteed coverage of all small query shapes (path, star, triangle,
// paw, square, diamond, K4, ...).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gen/graph_gen.h"
#include "graph/graph_utils.h"
#include "matching/brute_force.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/direct_enumeration.h"
#include "matching/graphql.h"
#include "matching/spath.h"
#include "matching/turboiso.h"
#include "matching/vf2.h"
#include "util/rng.h"

namespace sgq {
namespace {

// All connected graphs on n <= 4 vertices with labels from {0, 1}
// assigned by a bitmask: queries = (edge subset) x (label assignment).
std::vector<Graph> AllConnectedQueries() {
  std::vector<Graph> queries;
  for (uint32_t n = 1; n <= 4; ++n) {
    const uint32_t max_edges = n * (n - 1) / 2;
    std::vector<std::pair<VertexId, VertexId>> slots;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) slots.emplace_back(u, v);
    }
    for (uint32_t edge_mask = 0; edge_mask < (1u << max_edges);
         ++edge_mask) {
      for (uint32_t label_mask = 0; label_mask < (1u << n); ++label_mask) {
        GraphBuilder builder;
        for (uint32_t v = 0; v < n; ++v) {
          builder.AddVertex((label_mask >> v) & 1);
        }
        for (uint32_t e = 0; e < max_edges; ++e) {
          if ((edge_mask >> e) & 1) {
            builder.AddEdge(slots[e].first, slots[e].second);
          }
        }
        Graph g = builder.Build();
        if (IsConnected(g)) queries.push_back(std::move(g));
      }
    }
  }
  return queries;
}

std::vector<Graph> DataBattery() {
  std::vector<Graph> data;
  Rng rng(2027);
  std::vector<Label> labels = {0, 1};
  // Structured: complete graph, bipartite-ish, long cycle, star.
  {
    GraphBuilder b;  // K5 with alternating labels
    for (int i = 0; i < 5; ++i) b.AddVertex(i % 2);
    for (VertexId u = 0; u < 5; ++u) {
      for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
    }
    data.push_back(b.Build());
  }
  {
    GraphBuilder b;  // 8-cycle
    for (int i = 0; i < 8; ++i) b.AddVertex(i % 2);
    for (VertexId v = 0; v < 8; ++v) b.AddEdge(v, (v + 1) % 8);
    data.push_back(b.Build());
  }
  {
    GraphBuilder b;  // star with mixed labels
    b.AddVertex(0);
    for (int i = 0; i < 6; ++i) {
      const VertexId leaf = b.AddVertex(i % 2);
      b.AddEdge(0, leaf);
    }
    data.push_back(b.Build());
  }
  // Random fillers.
  for (int i = 0; i < 3; ++i) {
    data.push_back(GenerateRandomGraph(12, 3.0 + i, labels, &rng));
  }
  return data;
}

TEST(ExhaustiveSmallQueryTest, AllMatchersAllShapes) {
  const std::vector<Graph> queries = AllConnectedQueries();
  const std::vector<Graph> data = DataBattery();
  ASSERT_GT(queries.size(), 100u);  // sanity: the enumeration is non-trivial

  std::vector<std::unique_ptr<Matcher>> matchers;
  matchers.push_back(std::make_unique<GraphQlMatcher>());
  matchers.push_back(std::make_unique<CflMatcher>());
  matchers.push_back(std::make_unique<CfqlMatcher>());
  matchers.push_back(std::make_unique<TurboIsoMatcher>());
  matchers.push_back(std::make_unique<QuickSiMatcher>());
  matchers.push_back(std::make_unique<SPathMatcher>());

  Vf2 vf2;
  for (const Graph& g : data) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Graph& q = queries[qi];
      const uint64_t expected = BruteForceEnumerate(q, g, UINT64_MAX);
      for (const auto& matcher : matchers) {
        const auto aux = matcher->Filter(q, g);
        uint64_t count = 0;
        if (aux->Passed()) {
          count =
              matcher->Enumerate(q, g, *aux, UINT64_MAX, nullptr).embeddings;
        }
        ASSERT_EQ(count, expected)
            << matcher->name() << " query#" << qi << " (|Vq|="
            << q.NumVertices() << ", |Eq|=" << q.NumEdges() << ")";
      }
      ASSERT_EQ(vf2.Enumerate(q, g, UINT64_MAX, nullptr).embeddings,
                expected)
          << "VF2 query#" << qi;
    }
  }
}

}  // namespace
}  // namespace sgq
