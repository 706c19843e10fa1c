// sgq_server: a long-running subgraph-query server. Loads a database once,
// prepares the engine(s) once, then serves the line protocol of
// src/service/protocol.h over a Unix or TCP socket until SIGINT/SIGTERM or
// a SHUTDOWN request — at which point it stops admitting, drains every
// in-flight query, and exits cleanly.
//
//   sgq_server (--db db.txt | --snapshot db.csr) --socket /tmp/sgq.sock
//              [--engine CFQL]
//              [--workers 2] [--queue 64] [--default-timeout 600]
//              [--build-limit 86400] [--max-request-bytes 16777216]
//              [--threads N] [--chunk K]     (CFQL-parallel only)
//              [--cache-mb 64] [--cache on|off]
//              [--sched fifo|sjf] [--sched-threshold 10000]
//              (cost-aware two-class scheduler; SGQ_SCHED overrides)
//              [--shard-of i/M]   (serve shard i of an M-way deployment)
//              [--candidate-index on|off] [--candidate-index-min N]
//   sgq_server --db db.txt --port 7474 [--host 127.0.0.1] ...
//
// --db auto-detects binary CSR snapshots by magic bytes; --snapshot is the
// strict spelling that refuses anything but a compiled snapshot (use it in
// deployments where an accidental text load would blow the startup budget).
// --candidate-index controls the degree/label-partitioned candidate index
// attached to massive data graphs (default: on, for graphs with at least
// --candidate-index-min vertices; SGQ_CANDIDATE_INDEX overrides).
//
// With --shard-of the server loads the full database file but keeps only
// the graphs the shard-map hash (src/router/shard_map.h) assigns to shard
// i, and reports answers under their unsharded ids — the form sgq_router
// expects from its backends.
//
// The query-result cache (--cache-mb, default 64 MiB; --cache off or
// SGQ_CACHE=off to disable) serves repeated and isomorphically relabeled
// queries without re-running the engine; RELOAD invalidates it wholesale
// and CACHE CLEAR drops it on demand.
//
// Protocol (one response line per request; see src/service/protocol.h):
//   QUERY <len> [timeout_s]\n<len bytes>   -> OK <n> <json> | TIMEOUT ...
//   QUERY @<path> [timeout_s]              -> ... | OVERLOADED | BAD_REQUEST
//   STATS                                  -> OK <json>
//   RELOAD [@<path>]                       -> OK reloaded <n> graphs
//   SHUTDOWN                               -> BYE (then graceful drain)
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>

#include "graph/csr_snapshot.h"
#include "graph/graph_io.h"
#include "router/shard_map.h"
#include "service/server.h"
#include "tool_flags.h"
#include "util/defaults.h"

namespace {

sgq::SocketServer* g_server = nullptr;

void HandleSignal(int) {
  // Async-signal-safe: RequestStop only flips an atomic and writes a pipe.
  if (g_server != nullptr) g_server->RequestStop();
}

int Usage() {
  std::fprintf(stderr,
               "usage: sgq_server (--db db.txt | --snapshot db.csr) "
               "(--socket PATH | --port N) [--host 127.0.0.1]\n"
               "                  [--engine CFQL] [--workers 2] [--queue 64]\n"
               "                  [--default-timeout 600] "
               "[--build-limit 86400]\n"
               "                  [--max-request-bytes N] [--threads N] "
               "[--chunk K]\n"
               "                  [--cache-mb 64] [--cache on|off] "
               "[--shard-of i/M]\n"
               "                  [--sched fifo|sjf] "
               "[--sched-threshold 10000]\n"
               "                  [--candidate-index on|off] "
               "[--candidate-index-min N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgq;
  sgq_tools::Flags flags(argc, argv, 1);
  if (!flags.ok() ||
      !flags.Validate({"db", "socket", "port", "host", "engine", "workers",
                       "queue", "default-timeout", "build-limit",
                       "max-request-bytes", "threads", "chunk", "cache-mb",
                       "cache", "shard-of", "sched", "sched-threshold",
                       "snapshot", "candidate-index",
                       "candidate-index-min"})) {
    return Usage();
  }
  const bool snapshot_only = flags.Has("snapshot");
  if (snapshot_only && flags.Has("db")) {
    std::fprintf(stderr, "--db and --snapshot are mutually exclusive\n");
    return Usage();
  }
  const std::string db_path =
      snapshot_only ? flags.Get("snapshot", "") : flags.Get("db", "");
  if (db_path.empty()) {
    std::fprintf(stderr, "one of --db or --snapshot is required\n");
    return Usage();
  }
  if (snapshot_only && !IsSnapshotFile(db_path)) {
    std::fprintf(stderr, "--snapshot %s: not a CSR snapshot (compile one "
                 "with sgq_snapshot)\n", db_path.c_str());
    return 1;
  }
  ServerConfig server_config;
  if (!sgq_tools::ReadListenFlags(flags, &server_config)) return Usage();
  server_config.db_path = db_path;

  ServiceConfig service_config;
  service_config.engine_name = flags.Get("engine", "CFQL");
  service_config.workers = static_cast<uint32_t>(flags.GetDouble("workers", 2));
  service_config.queue_capacity =
      static_cast<size_t>(flags.GetDouble("queue", 64));
  service_config.default_timeout_seconds =
      flags.GetDouble("default-timeout", kDefaultQueryTimeoutSeconds);
  service_config.build_timeout_seconds =
      flags.GetDouble("build-limit", kDefaultBuildTimeoutSeconds);
  service_config.engine.parallel_threads =
      static_cast<uint32_t>(flags.GetDouble("threads", 0));
  service_config.engine.parallel_chunk =
      static_cast<uint32_t>(flags.GetDouble("chunk", 0));
  const std::string cache_switch = flags.Get("cache", "on");
  if (cache_switch != "on" && cache_switch != "off") {
    std::fprintf(stderr, "--cache must be on or off\n");
    return 2;
  }
  service_config.engine.cache_mb =
      cache_switch == "off"
          ? 0
          : static_cast<size_t>(flags.GetDouble(
                "cache-mb",
                static_cast<double>(service_config.engine.cache_mb)));
  service_config.sched = flags.Get("sched", "fifo");
  if (service_config.sched != "fifo" && service_config.sched != "sjf") {
    std::fprintf(stderr, "--sched must be fifo or sjf\n");
    return 2;
  }
  service_config.sched_heavy_threshold = flags.GetDouble(
      "sched-threshold", service_config.sched_heavy_threshold);
  const std::string ci_switch = flags.Get("candidate-index", "on");
  if (ci_switch != "on" && ci_switch != "off") {
    std::fprintf(stderr, "--candidate-index must be on or off\n");
    return 2;
  }
  service_config.engine.candidate_index_min_vertices =
      ci_switch == "off"
          ? UINT32_MAX
          : static_cast<uint32_t>(flags.GetDouble(
                "candidate-index-min",
                service_config.engine.candidate_index_min_vertices));
  if (!IsKnownEngine(service_config.engine_name)) {
    std::fprintf(stderr, "unknown engine: %s\n",
                 service_config.engine_name.c_str());
    return 2;
  }

  std::string error;
  if (flags.Has("shard-of")) {
    ShardSpec shard;
    if (!ParseShardSpec(flags.Get("shard-of", ""), &shard, &error)) {
      std::fprintf(stderr, "bad --shard-of: %s\n", error.c_str());
      return 2;
    }
    server_config.shard_index = shard.index;
    server_config.shard_count = shard.count;
  }

  GraphDatabase db;
  if (!LoadDatabase(db_path, &db, &error)) {
    std::fprintf(stderr, "failed to load %s: %s\n", db_path.c_str(),
                 error.c_str());
    return 1;
  }
  SocketServer server(server_config, service_config);
  if (!server.Start(std::move(db), &error)) {
    std::fprintf(stderr, "failed to start: %s\n", error.c_str());
    return 1;
  }
  // Post-filter count: with --shard-of this is the shard's own slice.
  const size_t num_graphs = server.Stats().db_graphs;
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const std::string shard_note =
      server_config.shard_count > 1
          ? " as shard " + std::to_string(server_config.shard_index) + "/" +
                std::to_string(server_config.shard_count)
          : "";
  std::printf("sgq_server: %s over %zu graphs%s on %s (%u workers, "
              "queue %zu)\n",
              service_config.engine_name.c_str(), num_graphs,
              shard_note.c_str(),
              sgq_tools::ListenAddress(server_config, server.port()).c_str(),
              service_config.workers, service_config.queue_capacity);
  std::fflush(stdout);

  server.Wait();
  g_server = nullptr;
  std::printf("sgq_server: drained, final stats %s\n",
              server.Stats().ToJson().c_str());
  return 0;
}
