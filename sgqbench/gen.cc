// `sgqbench gen-dataset` and `gen-stream`: every input of a run. The
// dataset (database, query pool, add pool, keys) comes from the fixed
// kDatasetSeed; the traffic comes from --seed.
//
// The query pool is the paper's Q4S/Q8S/Q16S (random walk) and
// Q4D/Q8D/Q16D (BFS) sets from the library's query generator. Answer keys
// come from the library's GraphQL engine, which no workload serves,
// computed here, before anything is timed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <thread>

#include "cache/canonical.h"
#include "common.h"
#include "gen/biggraph_gen.h"
#include "gen/dataset_profiles.h"
#include "gen/query_gen.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_io.h"
#include "index/vertex_candidate_index.h"
#include "query/engine_factory.h"
#include "util/defaults.h"
#include "util/rng.h"

namespace sgqbench {
namespace {

using sgq::Graph;
using sgq::GraphDatabase;

// Database, query pool and query popularity are fixed across runs, like a
// real dataset and its query sets; --seed varies only the traffic.
constexpr uint64_t kDatasetSeed = 1;
constexpr const char* kKeyEngine = "GraphQL";
// The hot/cold query mix (--mix hot): a share kHotShare of the queries are
// Zipf(kZipf) draws from the kHotQueries hot ones, the rest are each sent
// once. The share is far enough from one half that neither the median nor
// the 99th percentile sits on the boundary between hits and misses.
constexpr uint32_t kHotQueries = 200;
constexpr double kHotShare = 0.3;
constexpr double kZipf = 1.0;

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The same graph under a uniformly random vertex permutation: isomorphic,
// so the cache's canonical key is unchanged, but the bytes differ.
Graph Relabel(const Graph& g, sgq::Rng* rng) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->NextBounded(i)]);
  }
  std::vector<uint32_t> old_of(n);
  for (uint32_t v = 0; v < n; ++v) old_of[perm[v]] = v;
  sgq::GraphBuilder builder;
  for (uint32_t j = 0; j < n; ++j) builder.AddVertex(g.label(old_of[j]));
  for (uint32_t v = 0; v < n; ++v) {
    for (const uint32_t u : g.Neighbors(v)) {
      if (u > v) builder.AddEdge(perm[v], perm[u]);
    }
  }
  return builder.Build();
}

// Answers of every pool query over `db` with `engine_name`, on `threads`
// threads (one engine each: engines keep per-query workspaces). A query
// the key engine cannot finish within `timeout_s` fails, unless `known`
// gives its answer by construction; a finished answer that disagrees with
// `known` fails too.
bool ComputeKeys(const GraphDatabase& db, const std::vector<Graph>& pool,
                 const std::string& engine_name, uint32_t threads,
                 double timeout_s, const std::vector<uint32_t>* known,
                 std::vector<std::vector<uint32_t>>* keys,
                 uint64_t* timeouts) {
  keys->assign(pool.size(), {});
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> timed_out{0};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      std::unique_ptr<sgq::QueryEngine> engine = sgq::MakeEngine(engine_name);
      if (!engine->Prepare(db, sgq::Deadline::Infinite())) {
        failed = true;
        return;
      }
      for (size_t i = next++; i < pool.size(); i = next++) {
        const sgq::QueryResult result =
            engine->Query(pool[i], sgq::Deadline::AfterSeconds(timeout_s));
        std::vector<uint32_t>& key = (*keys)[i];
        key.assign(result.answers.begin(), result.answers.end());
        if (result.stats.timed_out) {
          ++timed_out;
          if (known == nullptr) {
            failed = true;
          } else {
            key = *known;
          }
        } else if (known != nullptr && key != *known) {
          failed = true;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  *timeouts = timed_out;
  return !failed;
}

struct QuerySetSpec {
  sgq::QueryKind kind;
  uint32_t edges;
};

// Parses a comma-separated list of set names: "4s" is Q4S (random walk),
// "16d" is Q16D (BFS), and so on.
bool ParseQuerySets(const std::string& csv, std::vector<QuerySetSpec>* sets) {
  std::string list = csv + ",";
  for (size_t pos = 0, comma;
       (comma = list.find(',', pos)) != std::string::npos; pos = comma + 1) {
    const std::string name = list.substr(pos, comma - pos);
    if (name.size() < 2 || (name.back() != 's' && name.back() != 'd')) {
      return false;
    }
    const uint32_t edges =
        static_cast<uint32_t>(std::strtoul(name.c_str(), nullptr, 10));
    if (edges == 0) return false;
    sets->push_back({name.back() == 's' ? sgq::QueryKind::kSparse
                                        : sgq::QueryKind::kDense,
                     edges});
  }
  return !sets->empty();
}

// `per_set` queries from each set, interleaved in a seeded order. With
// `distinct`, isomorphic duplicates are dropped (canonical hash).
std::vector<Graph> MakePool(const GraphDatabase& db,
                            const std::vector<QuerySetSpec>& sets,
                            uint32_t per_set, bool distinct, uint64_t seed) {
  std::vector<Graph> pool;
  std::set<sgq::CanonicalHash> seen;
  uint64_t tag = 100;
  for (const QuerySetSpec& set : sets) {
    const sgq::QuerySet qs = sgq::GenerateQuerySet(
        db, set.kind, set.edges, per_set, SubSeed(seed, tag++));
    for (const Graph& q : qs.queries) {
      if (distinct && !seen.insert(sgq::CanonicalQueryHash(q)).second) {
        continue;
      }
      pool.push_back(q);
    }
  }
  sgq::Rng rng(SubSeed(seed, 7));
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextBounded(i)]);
  }
  return pool;
}

std::string SerializeAll(const std::vector<Graph>& graphs) {
  std::string out;
  for (size_t i = 0; i < graphs.size(); ++i) {
    out += sgq::SerializeGraph(graphs[i], static_cast<sgq::GraphId>(i));
  }
  return out;
}

// Poisson arrival offsets over [0, seconds) at `rate` per second.
std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                     sgq::Rng* rng) {
  std::vector<int64_t> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng->NextDouble()) / rate;
    if (t >= seconds) return out;
    out.push_back(static_cast<int64_t>(t * 1e9));
  }
}

// Queries come either from `order`, each once (zipf_cdf empty), or from a
// hot set and a cold tail: with probability kHotShare a Zipf draw over the
// hot ranks, otherwise the next cold rank, never sent before. Once the hot
// set is cached the hit ratio is then kHotShare at every point of a run.
struct OpMaker {
  const std::vector<Graph>* pool = nullptr;
  const std::vector<Graph>* addpool = nullptr;
  std::vector<double> zipf_cdf;   // over the hot ranks
  std::vector<uint32_t> rank_to_pool;
  uint32_t next_cold = 0;         // rank
  std::vector<uint32_t> order;    // send order of a distinct pool
  bool relabel = true;
  double write_ratio = 0;
  uint32_t next_sequential = 0;
  uint32_t next_slot = 0;
  bool pending_remove = false;  // next mutation removes slot next_slot-1
  uint32_t pending_slot = 0;

  bool Exhausted() const {
    return zipf_cdf.empty() ? next_sequential >= pool->size()
                            : next_cold >= pool->size();
  }

  Op QueryOp(uint32_t index, sgq::Rng* rng) const {
    Op op;
    op.index = index;
    const Graph& q = (*pool)[index];
    op.payload = relabel ? sgq::SerializeGraph(Relabel(q, rng), 0)
                         : sgq::SerializeGraph(q, 0);
    return op;
  }

  Op Next(sgq::Rng* rng) {
    Op op;
    if (write_ratio > 0 && rng->NextDouble() < write_ratio) {
      if (pending_remove) {
        op.kind = 'R';
        op.slot = pending_slot;
        pending_remove = false;
      } else {
        op.kind = 'A';
        op.slot = next_slot++;
        op.index = static_cast<uint32_t>(rng->NextBounded(addpool->size()));
        op.payload = sgq::SerializeGraph((*addpool)[op.index], 0);
        pending_remove = true;
        pending_slot = op.slot;
      }
      return op;
    }
    if (zipf_cdf.empty()) return QueryOp(order[next_sequential++], rng);
    if (rng->NextDouble() >= kHotShare) {
      return QueryOp(rank_to_pool[next_cold++], rng);
    }
    const double u = rng->NextDouble() * zipf_cdf.back();
    const size_t rank = static_cast<size_t>(
        std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    return QueryOp(rank_to_pool[std::min(rank, zipf_cdf.size() - 1)], rng);
  }
};

bool LoadGraphs(const std::string& path, std::vector<Graph>* graphs) {
  std::string text, error;
  GraphDatabase db;
  if (!ReadFile(path, &text) || !sgq::ParseDatabase(text, &db, &error)) {
    std::fprintf(stderr, "gen: cannot load %s %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  *graphs = db.graphs();
  return true;
}

}  // namespace

// `gen-dataset`: the database, query pool, add pool and their keys. They
// depend on kDatasetSeed only, so run.py builds them once per checkout.
// Flags: --dir D --db aids|big
//   aids: --graphs 4000        big: --vertices --degree --labels
//   --query-sets 4s,8s,16s,4d,8d,16d
//   --pool-per-set P (repeating pool) | --pool-size N (distinct queries)
//   --add-pool K
//   --key-threads 4 --key-timeout 30
int RunGenDataset(const Flags& flags) {
  const std::string dir = flags.Get("dir", "");
  const std::string kind = flags.Get("db", "aids");
  const uint32_t key_threads =
      static_cast<uint32_t>(flags.GetU64("key-threads", 4));
  std::vector<QuerySetSpec> sets;
  if (dir.empty() || (kind != "aids" && kind != "big") ||
      !ParseQuerySets(flags.Get("query-sets", "4s,8s,16s,4d,8d,16d"),
                      &sets)) {
    std::fprintf(stderr, "gen-dataset: need --dir, --db aids|big and valid "
                 "--query-sets\n");
    return 2;
  }
  std::string error;

  GraphDatabase db;
  if (kind == "aids") {
    const double graphs = flags.GetDouble("graphs", 4000);
    const sgq::DatasetProfile& aids = sgq::ProfileByName("AIDS");
    db = sgq::GenerateStandIn(aids, graphs / aids.num_graphs, 1.0,
                              SubSeed(kDatasetSeed, 1));
    if (!sgq::SaveDatabase(db, dir + "/db.txt", &error)) {
      std::fprintf(stderr, "gen-dataset: %s\n", error.c_str());
      return 1;
    }
  } else {
    sgq::PowerLawParams params;
    params.num_vertices =
        static_cast<uint32_t>(flags.GetU64("vertices", 131072));
    params.avg_degree = flags.GetDouble("degree", 16);
    params.num_labels = static_cast<uint32_t>(flags.GetU64("labels", 32));
    params.seed = SubSeed(kDatasetSeed, 1);
    db.Add(sgq::GeneratePowerLawGraph(params));
    if (!sgq::WriteSnapshot(db, dir + "/db.csr", &error)) {
      std::fprintf(stderr, "gen-dataset: %s\n", error.c_str());
      return 1;
    }
    sgq::AttachCandidateIndexes(&db, sgq::kDefaultCandidateIndexMinVertices);
  }

  const bool distinct = flags.Has("pool-size");
  std::vector<Graph> pool;
  if (distinct) {
    const uint64_t want = flags.GetU64("pool-size", 600);
    // Over-generate by a quarter so that dropping isomorphic duplicates
    // still leaves `want` queries.
    const uint64_t per_set = (want * 5 / 4) / sets.size() + 8;
    pool = MakePool(db, sets, static_cast<uint32_t>(per_set), true,
                    SubSeed(kDatasetSeed, 2));
    if (pool.size() > want) pool.resize(want);
  } else {
    pool = MakePool(db, sets,
                    static_cast<uint32_t>(flags.GetU64("pool-per-set", 100)),
                    false, SubSeed(kDatasetSeed, 2));
  }

  // Graphs to ADD: AIDS-like molecules from their own seed, so they are
  // never copies of base graphs.
  std::vector<Graph> addpool;
  const uint64_t add_count = flags.GetU64("add-pool", 0);
  if (add_count > 0) {
    const sgq::DatasetProfile& aids = sgq::ProfileByName("AIDS");
    GraphDatabase adds = sgq::GenerateStandIn(
        aids, static_cast<double>(add_count) / aids.num_graphs, 1.0,
        SubSeed(kDatasetSeed, 3));
    addpool = adds.graphs();
  }

  // Big-graph queries are drawn from graph 0, so {0} is their answer by
  // construction; the key engine must agree wherever it finishes.
  const std::vector<uint32_t> drawn_from_graph0 = {0};
  const std::vector<uint32_t>* known =
      kind == "big" ? &drawn_from_graph0 : nullptr;
  const double key_timeout = flags.GetDouble("key-timeout", 30);
  std::vector<std::vector<uint32_t>> keys;
  uint64_t key_timeouts = 0;
  if (!ComputeKeys(db, pool, kKeyEngine, key_threads, key_timeout, known,
                   &keys, &key_timeouts)) {
    std::fprintf(stderr, "gen-dataset: key engine %s failed or disagreed\n",
                 kKeyEngine);
    return 1;
  }
  std::vector<std::vector<uint32_t>> addkeys(pool.size());
  if (!addpool.empty()) {
    GraphDatabase adds;
    for (const Graph& g : addpool) adds.Add(g);
    uint64_t add_timeouts = 0;
    if (!ComputeKeys(adds, pool, kKeyEngine, key_threads, key_timeout,
                     nullptr, &addkeys, &add_timeouts)) {
      std::fprintf(stderr, "gen-dataset: key engine failed on the add "
                   "pool\n");
      return 1;
    }
  }
  // meta.txt goes last: its presence marks a complete dataset.
  if (!WriteFile(dir + "/pool.txt", SerializeAll(pool)) ||
      !WriteFile(dir + "/addpool.txt", SerializeAll(addpool)) ||
      !WriteFile(dir + "/keys.txt", EncodeIdLists(keys)) ||
      !WriteFile(dir + "/addkeys.txt", EncodeIdLists(addkeys)) ||
      !WriteFile(dir + "/meta.txt",
                 "base_graphs " + std::to_string(db.size()) + "\n")) {
    std::fprintf(stderr, "gen-dataset: cannot write under %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf("gen-dataset: %zu base graphs, pool %zu, add pool %zu, "
              "key-engine timeouts %llu\n",
              db.size(), pool.size(), addpool.size(),
              static_cast<unsigned long long>(key_timeouts));
  return 0;
}

// `gen-stream`: the traffic of one run, from --seed: query draws,
// relabellings, open-loop arrival times and mutation choices.
// Flags: --dir DATASET --out stream.txt --seed N
//   --mix hot (the hot/cold mix, each query a fresh isomorphic relabelling)
//       | distinct (each pool query once, as drawn, in a fixed order)
//   --open-rate R --open-seconds T   --write-ratio w
//   --round-len L (requests in a closed-loop round)
int RunGenStream(const Flags& flags) {
  const std::string dir = flags.Get("dir", "");
  const std::string out = flags.Get("out", "");
  const uint64_t seed = flags.GetU64("seed", 1);
  std::vector<Graph> pool, addpool;
  if (dir.empty() || out.empty() || !LoadGraphs(dir + "/pool.txt", &pool) ||
      !LoadGraphs(dir + "/addpool.txt", &addpool) || pool.empty()) {
    std::fprintf(stderr, "gen-stream: need --dir (a dataset) and --out\n");
    return 2;
  }

  OpMaker maker;
  maker.pool = &pool;
  maker.addpool = &addpool;
  const std::string mix = flags.Get("mix", "");
  if (mix != "hot" && mix != "distinct") {
    std::fprintf(stderr, "gen-stream: --mix hot|distinct\n");
    return 2;
  }
  maker.relabel = mix == "hot";
  maker.write_ratio = flags.GetDouble("write-ratio", 0);
  if (maker.write_ratio > 0 && addpool.empty()) {
    std::fprintf(stderr, "gen-stream: --write-ratio needs an add pool\n");
    return 2;
  }
  if (mix == "distinct") {
    // A distinct pool is sent once, in an order fixed with the dataset:
    // every run then does the same work and --seed varies only the
    // arrival times.
    sgq::Rng order_rng(SubSeed(kDatasetSeed, 6));
    for (uint32_t i = 0; i < pool.size(); ++i) maker.order.push_back(i);
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(maker.order[i - 1], maker.order[order_rng.NextBounded(i)]);
    }
  } else {
    // A ranking of the pool fixed by the dataset seed: the first
    // kHotQueries ranks are the hot set, where rank r has weight
    // 1 / (r+1)^kZipf.
    if (pool.size() <= kHotQueries) {
      std::fprintf(stderr, "gen-stream: the pool is smaller than the hot "
                   "set\n");
      return 2;
    }
    maker.next_cold = kHotQueries;
    sgq::Rng rank_rng(SubSeed(kDatasetSeed, 4));
    maker.rank_to_pool.resize(pool.size());
    for (uint32_t i = 0; i < pool.size(); ++i) maker.rank_to_pool[i] = i;
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(maker.rank_to_pool[i - 1],
                maker.rank_to_pool[rank_rng.NextBounded(i)]);
    }
    double total = 0;
    for (size_t r = 0; r < kHotQueries; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
      maker.zipf_cdf.push_back(total);
    }
  }

  // Appends `count` requests from `from`, then the REMOVE of an ADD left
  // without one, so that no pair straddles a phase boundary. False when
  // the pool runs out: every run must send the same mix throughout.
  const auto draw = [](OpMaker* from, size_t count, sgq::Rng* rng,
                       std::vector<Op>* ops) {
    for (size_t i = 0; i < count; ++i) {
      if (from->Exhausted()) return false;
      ops->push_back(from->Next(rng));
    }
    if (from->pending_remove) {
      Op op;
      op.kind = 'R';
      op.slot = from->pending_slot;
      ops->push_back(std::move(op));
      from->pending_remove = false;
    }
    return true;
  };
  Stream stream;
  // The closed loop's round is drawn once, from the dataset seed, with the
  // open loop's mix: every run measures capacity on the same work.
  OpMaker round_maker = maker;
  sgq::Rng round_rng(SubSeed(kDatasetSeed, 8));
  bool ok = draw(&round_maker, flags.GetU64("round-len", 500), &round_rng,
                 &stream.closed);
  sgq::Rng rng(SubSeed(seed, 5));
  for (size_t r = 0; r < maker.zipf_cdf.size(); ++r) {
    stream.warm.push_back(maker.QueryOp(maker.rank_to_pool[r], &rng));
  }
  const std::vector<int64_t> arrivals = PoissonSchedule(
      flags.GetDouble("open-rate", 100), flags.GetDouble("open-seconds", 5),
      &rng);
  ok = ok && draw(&maker, arrivals.size(), &rng, &stream.open);
  if (!ok) {
    std::fprintf(stderr, "gen-stream: the pool ran out; enlarge it\n");
    return 2;
  }
  // A closing REMOVE goes with the last arrival.
  for (size_t i = 0; i < stream.open.size(); ++i) {
    stream.open[i].sched_ns = arrivals[std::min(i, arrivals.size() - 1)];
  }
  if (!WriteFile(out, EncodeStream(stream))) {
    std::fprintf(stderr, "gen-stream: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("gen-stream: warm %zu, open %zu, closed %zu\n",
              stream.warm.size(), stream.open.size(), stream.closed.size());
  return 0;
}

}  // namespace sgqbench
