// End-to-end bit-identity of the snapshot path: a database loaded from a
// binary mmap CSR snapshot must answer every query exactly like the same
// database loaded from text — across engines, with and without LIMIT,
// streamed and batch, with and without the candidate index — and must be
// safe to query concurrently from many threads over one shared mapping.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gen/biggraph_gen.h"
#include "gen/graph_gen.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_io.h"
#include "index/vertex_candidate_index.h"
#include "query/engine_factory.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace sgq {
namespace {

using ::sgq::testing::MakeCycle;
using ::sgq::testing::MakePath;

// A mixed database: a couple of "massive-ish" power-law graphs plus a spread
// of small random graphs, so scans have both hits and misses.
GraphDatabase MakeDb() {
  GraphDatabase db;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    PowerLawParams params;
    params.num_vertices = 600;
    params.avg_degree = 8.0;
    params.num_labels = 6;
    params.seed = seed;
    db.Add(GeneratePowerLawGraph(params));
  }
  SyntheticParams params;
  params.num_graphs = 24;
  params.vertices_per_graph = 30;
  params.degree = 4.0;
  params.num_labels = 6;
  params.seed = 99;
  GraphDatabase small = GenerateSyntheticDatabase(params);
  for (GraphId i = 0; i < small.size(); ++i) db.Add(small.graph(i));
  return db;
}

std::vector<Graph> Queries() {
  return {MakePath({0, 1}),       MakePath({1, 2, 3}),
          MakeCycle({0, 1, 2}),   MakePath({2, 1, 0, 1}),
          MakeCycle({1, 2, 3, 4}), MakePath({5, 0})};
}

// Collects streamed ids and optionally stops after `limit` answers.
class LimitSink : public ResultSink {
 public:
  explicit LimitSink(uint64_t limit) : limit_(limit) {}
  bool OnAnswer(GraphId id) override {
    ids.push_back(id);
    return limit_ == 0 || ids.size() < limit_;
  }
  std::vector<GraphId> ids;

 private:
  const uint64_t limit_;
};

class SnapshotQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every test as its own process, concurrently under -j: a
    // shared path would let one fixture truncate a file another has mapped.
    const std::string base =
        ::testing::TempDir() + "snapshot_query_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(::getpid());
    text_path_ = base + ".txt";
    snap_path_ = base + ".csr";
    GraphDatabase db = MakeDb();
    std::string error;
    ASSERT_TRUE(SaveDatabase(db, text_path_, &error)) << error;
    ASSERT_TRUE(WriteSnapshot(db, snap_path_, &error)) << error;
  }

  void TearDown() override {
    std::remove(text_path_.c_str());
    std::remove(snap_path_.c_str());
  }

  std::string text_path_;
  std::string snap_path_;
};

TEST_F(SnapshotQueryTest, EnginesBitIdenticalAcrossLimitAndStream) {
  std::string error;
  GraphDatabase from_text, from_snap;
  ASSERT_TRUE(LoadDatabase(text_path_, &from_text, &error)) << error;
  ASSERT_TRUE(LoadDatabase(snap_path_, &from_snap, &error)) << error;
  ASSERT_FALSE(from_text.graph(0).IsMapped());
  ASSERT_TRUE(from_snap.graph(0).IsMapped());
  ASSERT_TRUE(DatabasesEqual(from_text, from_snap));
  // Index the snapshot side only: indexed candidate generation over mapped
  // arrays must still match the plain full scan over owned arrays.
  AttachCandidateIndexes(&from_snap, /*min_vertices=*/100);

  for (const char* name : {"CFL", "GraphQL", "CFQL", "CFQL-parallel"}) {
    auto text_engine = MakeEngine(name);
    auto snap_engine = MakeEngine(name);
    ASSERT_TRUE(text_engine->Prepare(from_text, Deadline::Infinite()));
    ASSERT_TRUE(snap_engine->Prepare(from_snap, Deadline::Infinite()));
    for (const Graph& q : Queries()) {
      // Batch.
      const QueryResult expected = text_engine->Query(q);
      const QueryResult actual = snap_engine->Query(q);
      EXPECT_EQ(expected.answers, actual.answers) << name;

      // Streamed, unlimited: same order, same set.
      LimitSink text_stream(0), snap_stream(0);
      text_engine->Query(q, Deadline::Infinite(), &text_stream);
      snap_engine->Query(q, Deadline::Infinite(), &snap_stream);
      EXPECT_EQ(text_stream.ids, snap_stream.ids) << name;
      EXPECT_EQ(expected.answers, snap_stream.ids) << name;

      // Streamed with LIMIT 2: both stop at the identical prefix.
      if (expected.answers.size() >= 2) {
        LimitSink text_limited(2), snap_limited(2);
        text_engine->Query(q, Deadline::Infinite(), &text_limited);
        snap_engine->Query(q, Deadline::Infinite(), &snap_limited);
        EXPECT_EQ(text_limited.ids, snap_limited.ids) << name;
        EXPECT_EQ(std::vector<GraphId>(expected.answers.begin(),
                                       expected.answers.begin() + 2),
                  snap_limited.ids)
            << name;
      }
    }
  }
}

TEST_F(SnapshotQueryTest, ServiceLimitAndStreamOverSnapshot) {
  std::string error;
  GraphDatabase from_text, from_snap;
  ASSERT_TRUE(LoadDatabase(text_path_, &from_text, &error)) << error;
  ASSERT_TRUE(LoadDatabase(snap_path_, &from_snap, &error)) << error;

  ServiceConfig config;
  config.engine_name = "CFQL";
  config.workers = 2;
  config.queue_capacity = 16;
  // Index everything on both sides: the service path exercises admission,
  // LIMIT enforcement and streaming over indexed mapped graphs.
  config.engine.candidate_index_min_vertices = 0;

  QueryService text_service(config), snap_service(config);
  ASSERT_TRUE(text_service.Start(std::move(from_text), &error)) << error;
  ASSERT_TRUE(snap_service.Start(std::move(from_snap), &error)) << error;

  for (const Graph& q : Queries()) {
    const auto expected = text_service.Execute(q);
    const auto actual = snap_service.Execute(q);
    EXPECT_EQ(expected.result.answers, actual.result.answers);

    QueryService::ExecuteOptions options;
    options.limit = 2;
    LimitSink text_sink(0), snap_sink(0);
    options.sink = &text_sink;
    const auto text_limited = text_service.Execute(q, options);
    options.sink = &snap_sink;
    const auto snap_limited = snap_service.Execute(q, options);
    EXPECT_EQ(text_limited.result.answers, snap_limited.result.answers);
    EXPECT_EQ(text_sink.ids, snap_sink.ids);
  }
}

TEST_F(SnapshotQueryTest, ConcurrentQueriesOverOneMapping) {
  std::string error;
  GraphDatabase from_snap;
  ASSERT_TRUE(LoadDatabase(snap_path_, &from_snap, &error)) << error;
  AttachCandidateIndexes(&from_snap, /*min_vertices=*/0);

  ServiceConfig config;
  config.engine_name = "CFQL-parallel";
  config.workers = 4;
  config.queue_capacity = 64;
  QueryService service(config);
  ASSERT_TRUE(service.Start(std::move(from_snap), &error)) << error;

  // Reference answers, computed single-threaded first.
  const std::vector<Graph> queries = Queries();
  std::vector<std::vector<GraphId>> expected;
  for (const Graph& q : queries) {
    expected.push_back(service.Execute(q).result.answers);
  }

  // 8 client threads hammer the shared mapping concurrently; every answer
  // must match the single-threaded reference (TSan watches the mapping).
  std::vector<std::thread> clients;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const auto response = service.Execute(queries[i]);
          if (response.result.answers != expected[i]) ++failures[t];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(0, failures[t]) << "client " << t;
}

}  // namespace
}  // namespace sgq
