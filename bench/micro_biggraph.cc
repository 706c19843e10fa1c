// Microbenchmarks (google-benchmark) for the massive-single-graph path:
// cold database load (text parse vs mmap CSR snapshot), candidate-index
// construction, first-level candidate generation (full label-bucket scan
// vs degree/signature-sliced index probe), CFQL's filter alone, and
// end-to-end enumeration over the indexed graph with CFL and CFQL. The
// snapshot-load and indexed-probe rows carry the counters the acceptance
// gate reads: `load_speedup_vs_text` and `candidate_reduction` (bucket
// entries a full scan touches per entry the index examines).
//
// Graph scale is env-tunable so CI smoke runs stay cheap:
//   SGQ_BIGGRAPH_VERTICES   (default 131072)
//   SGQ_BIGGRAPH_AVG_DEGREE (default 16)
//   SGQ_BIGGRAPH_LABELS     (default 64)
//   SGQ_BIGGRAPH_SKEW       (Zipf exponent x100, default 50)
#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "gen/biggraph_gen.h"
#include "gen/query_gen.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_io.h"
#include "graph/graph_utils.h"
#include "index/vertex_candidate_index.h"
#include "matching/cfql.h"
#include "matching/workspace.h"
#include "query/engine_factory.h"

namespace {

using namespace sgq;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

PowerLawParams BenchParams() {
  PowerLawParams params;
  params.num_vertices =
      static_cast<uint32_t>(EnvU64("SGQ_BIGGRAPH_VERTICES", 131072));
  params.avg_degree =
      static_cast<double>(EnvU64("SGQ_BIGGRAPH_AVG_DEGREE", 16));
  params.num_labels =
      static_cast<uint32_t>(EnvU64("SGQ_BIGGRAPH_LABELS", 64));
  params.label_skew =
      static_cast<double>(EnvU64("SGQ_BIGGRAPH_SKEW", 50)) / 100.0;
  params.seed = 42;
  return params;
}

// One generated graph + its on-disk text and snapshot forms, built once
// and shared by every benchmark in the suite.
struct BigGraphFixture {
  GraphDatabase db;
  std::string text_path;
  std::string snapshot_path;
  double text_parse_seconds = 0;  // single cold text load, measured once

  static const BigGraphFixture& Get() {
    static BigGraphFixture* fixture = [] {
      auto* f = new BigGraphFixture();
      f->db.Add(GeneratePowerLawGraph(BenchParams()));
      const auto dir = std::filesystem::temp_directory_path();
      f->text_path = (dir / "sgq_micro_biggraph.db").string();
      f->snapshot_path = (dir / "sgq_micro_biggraph.csr").string();
      std::string error;
      if (!SaveDatabase(f->db, f->text_path, &error) ||
          !WriteSnapshot(f->db, f->snapshot_path, &error)) {
        std::fprintf(stderr, "fixture setup failed: %s\n", error.c_str());
        std::abort();
      }
      const auto t0 = std::chrono::steady_clock::now();
      GraphDatabase parsed;
      if (!LoadDatabase(f->text_path, &parsed, &error)) {
        std::fprintf(stderr, "fixture text load failed: %s\n", error.c_str());
        std::abort();
      }
      f->text_parse_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      return f;
    }();
    return *fixture;
  }
};

std::vector<Graph> BenchQueries() {
  static std::vector<Graph>* queries = [] {
    // Half sparse walks, half dense BFS extracts — dense queries carry the
    // higher vertex degrees and richer neighbor-label profiles that the
    // degree slice and signature filter actually bite on.
    auto* q = new std::vector<Graph>(
        GenerateQuerySet(BigGraphFixture::Get().db, QueryKind::kSparse,
                         /*num_edges=*/8, /*count=*/8, /*seed=*/7)
            .queries);
    auto dense = GenerateQuerySet(BigGraphFixture::Get().db,
                                  QueryKind::kDense, /*num_edges=*/12,
                                  /*count=*/8, /*seed=*/11)
                     .queries;
    q->insert(q->end(), dense.begin(), dense.end());
    return q;
  }();
  return *queries;
}

void BM_LoadText(benchmark::State& state) {
  const BigGraphFixture& fixture = BigGraphFixture::Get();
  for (auto _ : state) {
    GraphDatabase db;
    std::string error;
    if (!LoadDatabase(fixture.text_path, &db, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    benchmark::DoNotOptimize(db);
  }
  state.counters["vertices"] =
      static_cast<double>(fixture.db.graph(0).NumVertices());
  state.counters["edges"] =
      static_cast<double>(fixture.db.graph(0).NumEdges());
}
BENCHMARK(BM_LoadText)->Unit(benchmark::kMillisecond);

void BM_LoadSnapshot(benchmark::State& state) {
  const BigGraphFixture& fixture = BigGraphFixture::Get();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    GraphDatabase db;
    std::string error;
    if (!LoadSnapshot(fixture.snapshot_path, &db, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    benchmark::DoNotOptimize(db);
  }
  const double per_iter =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() /
      static_cast<double>(state.iterations());
  if (per_iter > 0) {
    state.counters["load_speedup_vs_text"] =
        fixture.text_parse_seconds / per_iter;
  }
}
BENCHMARK(BM_LoadSnapshot)->Unit(benchmark::kMicrosecond);

void BM_CandidateIndexBuild(benchmark::State& state) {
  const Graph& g = BigGraphFixture::Get().db.graph(0);
  size_t bytes = 0;
  for (auto _ : state) {
    auto index = VertexCandidateIndex::Build(g);
    bytes = index->MemoryBytes();
    benchmark::DoNotOptimize(index);
  }
  state.counters["index_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations() * g.NumVertices());
}
BENCHMARK(BM_CandidateIndexBuild)->Unit(benchmark::kMillisecond);

// The LDF+NLF first-level scan every vcFV engine performs per query
// vertex, written exactly as candidate_space.cc's fallback path.
void BM_FirstLevelFullScan(benchmark::State& state) {
  const Graph& g = BigGraphFixture::Get().db.graph(0);
  const std::vector<Graph> queries = BenchQueries();
  std::vector<VertexId> out;
  uint64_t scanned = 0;
  uint64_t kept = 0;
  for (auto _ : state) {
    scanned = 0;
    kept = 0;
    for (const Graph& q : queries) {
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        out.clear();
        const auto bucket = g.VerticesWithLabel(q.label(u));
        scanned += bucket.size();
        for (VertexId v : bucket) {
          if (g.degree(v) >= q.degree(u) &&
              SortedMultisetContains(g.NeighborLabels(v),
                                     q.NeighborLabels(u))) {
            out.push_back(v);
          }
        }
        kept += out.size();
        benchmark::DoNotOptimize(out.data());
      }
    }
  }
  state.counters["entries_scanned"] = static_cast<double>(scanned);
  state.counters["candidates_kept"] = static_cast<double>(kept);
}
BENCHMARK(BM_FirstLevelFullScan)->Unit(benchmark::kMillisecond);

void BM_FirstLevelIndexed(benchmark::State& state) {
  const Graph& g = BigGraphFixture::Get().db.graph(0);
  const std::vector<Graph> queries = BenchQueries();
  static auto index = VertexCandidateIndex::Build(g);
  std::vector<VertexId> out;
  uint64_t survivors = 0;
  uint64_t full_scan = 0;
  uint64_t kept = 0;
  for (auto _ : state) {
    survivors = 0;
    full_scan = 0;
    kept = 0;
    for (const Graph& q : queries) {
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        out.clear();
        const uint64_t sig =
            VertexCandidateIndex::SignatureOf(q.NeighborLabels(u));
        // Written as LdfNlfCandidatesInto's indexed path (the root's
        // candidates): only the degree-slice + signature survivors pay the
        // exact NLF check; the full scan walks the whole bucket.
        index->CollectCandidates(
            q.label(u), q.degree(u), sig,
            [&](VertexId v) {
              ++survivors;
              return SortedMultisetContains(g.NeighborLabels(v),
                                            q.NeighborLabels(u));
            },
            &out);
        full_scan += index->BucketSize(q.label(u));
        kept += out.size();
        benchmark::DoNotOptimize(out.data());
      }
    }
  }
  state.counters["index_survivors"] = static_cast<double>(survivors);
  if (survivors > 0) {
    state.counters["candidate_reduction"] =
        static_cast<double>(full_scan) / static_cast<double>(survivors);
  }
  state.counters["candidates_kept"] = static_cast<double>(kept);
}
BENCHMARK(BM_FirstLevelIndexed)->Unit(benchmark::kMillisecond);

// CFQL's filter alone (root, BFS tree, bitmap top-down, bottom-up) into
// one recycled workspace: the share of the biggraph serving cost that the
// Φ step owns. With the index, only root selection and the root's
// candidates read it.
void BM_CfqlFilter(benchmark::State& state) {
  Graph g = BigGraphFixture::Get().db.graph(0);
  if (state.range(0) != 0) g.SetCandidateIndex(VertexCandidateIndex::Build(g));
  const std::vector<Graph> queries = BenchQueries();
  const CfqlMatcher cfql;
  MatchWorkspace ws;
  uint64_t candidates = 0;
  for (auto _ : state) {
    candidates = 0;
    for (const Graph& q : queries) {
      candidates += cfql.Filter(q, g, &ws)->phi.TotalCandidates();
    }
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_CfqlFilter)->Arg(0)->Arg(1)->ArgName("index")->Unit(
    benchmark::kMillisecond);

// End-to-end queries through one engine: CFL (Φ + CPI) or CFQL (Φ only,
// the engine the biggraph serving workload runs).
void BM_EnumerateIndexed(benchmark::State& state, const char* engine_name) {
  const bool with_index = state.range(0) != 0;
  GraphDatabase db;
  std::string error;
  if (!LoadSnapshot(BigGraphFixture::Get().snapshot_path, &db, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  if (with_index) AttachCandidateIndexes(&db, /*min_vertices=*/0);
  EngineConfig config;
  config.candidate_index_min_vertices = with_index ? 0 : UINT32_MAX;
  auto engine = MakeEngine(engine_name, config);
  if (!engine->Prepare(db, Deadline::Infinite())) {
    state.SkipWithError("Prepare failed");
    return;
  }
  const std::vector<Graph> queries = BenchQueries();
  uint64_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (const Graph& q : queries) {
      answers += engine->Query(q).answers.size();
    }
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK_CAPTURE(BM_EnumerateIndexed, CFL, "CFL")
    ->Arg(0)
    ->Arg(1)
    ->ArgName("index")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EnumerateIndexed, CFQL, "CFQL")
    ->Arg(0)
    ->Arg(1)
    ->ArgName("index")
    ->Unit(benchmark::kMillisecond);

}  // namespace

SGQ_BENCH_MAIN("micro_biggraph");
