// Ablations for the design choices DESIGN.md calls out:
//   A1  GraphQL pseudo-iso refinement rounds (0/1/2/4): filter cost vs
//       filtering precision;
//   A2  CFL filter components (NLF check, bottom-up refinement) on/off;
//   A3  Grapes path-feature length (2/3/4 edges): indexing time, index
//       size, filtering precision;
//   A4  GraphGrep hash-bucket count: the storage/precision trade-off of
//       hashed path features versus the exact tries;
//   A5  MinedPath support / discriminative-ratio thresholds: the paper's
//       §II-B1 point that mining parameters are hard to tune — small
//       changes swing index size and filtering power;
//   A6  matching-order robustness: CFL's path-based order vs CFQL's
//       join-based order, measured in search-tree nodes per verification
//       (the paper's §IV-B3 robustness comparison).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "gen/dataset_profiles.h"
#include "gen/query_gen.h"
#include "index/graphgrep_index.h"
#include "index/mined_path_index.h"
#include "index/grapes_index.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/graphql.h"
#include "query/filter_verify_engine.h"
#include "util/timer.h"

namespace {

using namespace sgq;
using namespace sgq::bench;

struct Workload {
  GraphDatabase db;
  std::vector<QuerySet> sets;
};

Workload MakeWorkload() {
  Workload w;
  w.db = GenerateStandIn(ProfileByName("AIDS"), /*count_scale=*/0.005,
                         /*size_scale=*/1.0, /*seed=*/31);
  w.sets.push_back(GenerateQuerySet(w.db, QueryKind::kSparse, 8, 15, 5));
  w.sets.push_back(GenerateQuerySet(w.db, QueryKind::kDense, 8, 15, 6));
  return w;
}

void RunVcfv(const Workload& w, const char* label,
             std::unique_ptr<Matcher> matcher) {
  FilterVerifyEngine engine(label, /*index=*/nullptr, std::move(matcher));
  engine.Prepare(w.db, Deadline::Infinite());
  for (const QuerySet& set : w.sets) {
    std::vector<QueryResult> results;
    for (const Graph& q : set.queries) {
      results.push_back(engine.Query(q, Deadline::AfterSeconds(5)));
    }
    const QuerySetSummary s = Summarize(results, 5000);
    std::printf("  %-24s %-5s filter %8.3f ms  verify %8.4f ms  "
                "precision %.3f  |C| %6.1f\n",
                label, set.name.c_str(), s.avg_filtering_ms,
                s.avg_verification_ms, s.filtering_precision,
                s.avg_candidates);
  }
}

}  // namespace

int main() {
  PrintHeader("Ablations", "Design-choice ablations on an AIDS stand-in");
  const Workload w = MakeWorkload();
  std::printf("workload: %zu graphs, %zu+%zu queries\n\n", w.db.size(),
              w.sets[0].queries.size(), w.sets[1].queries.size());

  std::printf("[A1] GraphQL pseudo-iso refinement rounds\n");
  for (uint32_t rounds : {0u, 1u, 2u, 4u}) {
    GraphQlOptions opts;
    opts.refinement_rounds = rounds;
    char label[64];
    std::snprintf(label, sizeof(label), "GraphQL(rounds=%u)", rounds);
    RunVcfv(w, label, std::make_unique<GraphQlMatcher>(opts));
  }

  std::printf("\n[A2] CFL filter components\n");
  for (int variant = 0; variant < 4; ++variant) {
    CflOptions opts;
    opts.use_nlf = (variant & 1) != 0;
    opts.refine_bottom_up = (variant & 2) != 0;
    char label[64];
    std::snprintf(label, sizeof(label), "CFL(nlf=%d,refine=%d)",
                  opts.use_nlf ? 1 : 0, opts.refine_bottom_up ? 1 : 0);
    RunVcfv(w, label, std::make_unique<CflMatcher>(opts));
  }

  std::printf("\n[A3] Grapes path-feature length\n");
  for (uint32_t edges : {2u, 3u, 4u}) {
    GrapesOptions opts;
    opts.max_path_edges = edges;
    GrapesIndex index(opts);
    WallTimer build_timer;
    index.Build(w.db, Deadline::AfterSeconds(120));
    const double build_ms = build_timer.ElapsedMillis();

    // Filtering precision of the index alone: |A| / |C| with A computed by
    // a CFL-filter+verify pass over the candidates.
    CflMatcher verifier;
    double precision_sum = 0;
    uint32_t queries = 0;
    double candidate_sum = 0;
    for (const QuerySet& set : w.sets) {
      for (const Graph& q : set.queries) {
        const auto candidates = index.FilterCandidates(q);
        uint32_t answers = 0;
        for (GraphId g : candidates) {
          DeadlineChecker checker{Deadline::AfterSeconds(5)};
          if (verifier.Contains(q, w.db.graph(g), &checker) == 1) ++answers;
        }
        precision_sum += candidates.empty()
                             ? 1.0
                             : static_cast<double>(answers) /
                                   static_cast<double>(candidates.size());
        candidate_sum += static_cast<double>(candidates.size());
        ++queries;
      }
    }
    std::printf("  paths<=%u edges: build %8.1f ms  index %7.2f MB  "
                "precision %.3f  |C| %6.1f\n",
                edges, build_ms,
                static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0),
                precision_sum / queries, candidate_sum / queries);
  }

  std::printf("\n[A4] GraphGrep hash-bucket count\n");
  for (uint32_t buckets : {64u, 1024u, 16384u}) {
    GraphGrepOptions opts;
    opts.num_buckets = buckets;
    GraphGrepIndex index(opts);
    WallTimer build_timer;
    index.Build(w.db, Deadline::AfterSeconds(120));
    const double build_ms = build_timer.ElapsedMillis();
    CflMatcher verifier;
    double precision_sum = 0;
    uint32_t queries = 0;
    double candidate_sum = 0;
    for (const QuerySet& set : w.sets) {
      for (const Graph& q : set.queries) {
        const auto candidates = index.FilterCandidates(q);
        uint32_t answers = 0;
        for (GraphId g : candidates) {
          DeadlineChecker checker{Deadline::AfterSeconds(5)};
          if (verifier.Contains(q, w.db.graph(g), &checker) == 1) ++answers;
        }
        precision_sum += candidates.empty()
                             ? 1.0
                             : static_cast<double>(answers) /
                                   static_cast<double>(candidates.size());
        candidate_sum += static_cast<double>(candidates.size());
        ++queries;
      }
    }
    std::printf("  buckets=%-6u build %8.1f ms  index %7.3f MB  "
                "precision %.3f  |C| %6.1f\n",
                buckets, build_ms,
                static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0),
                precision_sum / queries, candidate_sum / queries);
  }

  std::printf("\n[A5] MinedPath mining thresholds\n");
  for (const auto& [support, ratio] :
       std::initializer_list<std::pair<double, double>>{
           {0.02, 1.0}, {0.05, 1.5}, {0.20, 1.5}, {0.05, 4.0}}) {
    MinedPathOptions opts;
    opts.min_support = support;
    opts.discriminative_ratio = ratio;
    MinedPathIndex index(opts);
    WallTimer build_timer;
    index.Build(w.db, Deadline::AfterSeconds(120));
    const double build_ms = build_timer.ElapsedMillis();
    CflMatcher verifier;
    double precision_sum = 0;
    uint32_t queries = 0;
    double candidate_sum = 0;
    for (const QuerySet& set : w.sets) {
      for (const Graph& q : set.queries) {
        const auto candidates = index.FilterCandidates(q);
        uint32_t answers = 0;
        for (GraphId g : candidates) {
          DeadlineChecker checker{Deadline::AfterSeconds(5)};
          if (verifier.Contains(q, w.db.graph(g), &checker) == 1) ++answers;
        }
        precision_sum += candidates.empty()
                             ? 1.0
                             : static_cast<double>(answers) /
                                   static_cast<double>(candidates.size());
        candidate_sum += static_cast<double>(candidates.size());
        ++queries;
      }
    }
    std::printf("  support=%.2f ratio=%.1f: build %8.1f ms  "
                "features %6zu  index %7.3f MB  precision %.3f  |C| %6.1f\n",
                support, ratio, build_ms, index.NumSelectedFeatures(),
                static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0),
                precision_sum / queries, candidate_sum / queries);
  }

  std::printf("\n[A6] matching-order robustness (search-tree nodes per "
              "verification)\n");
  {
    CflMatcher cfl;    // path-based order over the CPI
    CfqlMatcher cfql;  // join-based order over the same candidate sets
    uint64_t cfl_nodes = 0, cfql_nodes = 0, verifications = 0;
    uint64_t cfl_worst = 0, cfql_worst = 0;
    for (const QuerySet& set : w.sets) {
      for (const Graph& q : set.queries) {
        for (const Graph& g : w.db.graphs()) {
          const auto aux = cfl.Filter(q, g);
          if (!aux->Passed()) continue;
          DeadlineChecker c1{Deadline::AfterSeconds(5)};
          const EnumerateResult a = cfl.Enumerate(q, g, *aux, 1, &c1);
          DeadlineChecker c2{Deadline::AfterSeconds(5)};
          const EnumerateResult b = cfql.Enumerate(q, g, *aux, 1, &c2);
          cfl_nodes += a.recursion_calls;
          cfql_nodes += b.recursion_calls;
          cfl_worst = std::max(cfl_worst, a.recursion_calls);
          cfql_worst = std::max(cfql_worst, b.recursion_calls);
          ++verifications;
        }
      }
    }
    std::printf("  CFL  (path-based): %8.2f nodes/verify, worst %llu\n",
                static_cast<double>(cfl_nodes) / verifications,
                static_cast<unsigned long long>(cfl_worst));
    std::printf("  CFQL (join-based): %8.2f nodes/verify, worst %llu\n",
                static_cast<double>(cfql_nodes) / verifications,
                static_cast<unsigned long long>(cfql_worst));
  }

  std::printf(
      "\nReading: more refinement/longer features buy precision at higher\n"
      "filter or index cost — the paper's configurations (2 rounds, 4-edge\n"
      "paths, NLF + bottom-up refinement on) sit at the knee.\n");
  return 0;
}
