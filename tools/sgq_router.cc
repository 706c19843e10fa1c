// sgq_router: scatter-gather front end over N sgq_server shards. Speaks
// the same line protocol as sgq_server on its client socket, so existing
// clients (sgq_client, netcat, the bench scripts) work unchanged; each
// QUERY fans out to every shard with the IDS framing, and the per-shard
// answers merge into the response a single unsharded server would give.
//
//   sgq_router --shards unix:/tmp/s0.sock,unix:/tmp/s1.sock
//              (--socket /tmp/router.sock | --port 7575) [--host 127.0.0.1]
//              [--on-shard-failure error|degraded]   (default error)
//              [--default-timeout 600] [--admin-timeout 3600]
//              [--max-request-bytes 16777216]
//              [--forward-shutdown on|off]           (default on)
//              [--cache-mb 0]   (router-side merged-result cache; 0 = off)
//
// --shards lists the shard endpoints in shard order: element i must be an
// sgq_server running with --shard-of i/N over the same database file.
// Endpoints are "unix:/path", a bare absolute path, or "host:port";
// connections are dialed lazily and persist across requests, so the fleet
// may start in any order.
//
// Partial failures follow --on-shard-failure: `error` answers OVERLOADED
// whenever any shard is unreachable, `degraded` merges the surviving
// shards and marks the response with shards_ok < shards_total in its
// stats json. RELOAD and CACHE CLEAR are always strict — a half-reloaded
// fleet would mix database versions inside one answer.
#include <csignal>
#include <cstdio>
#include <string>

#include "router/router_server.h"
#include "tool_flags.h"

namespace {

sgq::RouterServer* g_router = nullptr;

void HandleSignal(int) {
  if (g_router != nullptr) g_router->RequestStop();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sgq_router --shards EP0,EP1,... (--socket PATH | --port N)\n"
      "                  [--host 127.0.0.1] "
      "[--on-shard-failure error|degraded]\n"
      "                  [--default-timeout 600] [--admin-timeout 3600]\n"
      "                  [--max-request-bytes N] "
      "[--forward-shutdown on|off]\n"
      "                  [--cache-mb 0]\n"
      "  endpoints: unix:/path, /abs/path, or host:port — one per shard,\n"
      "  in shard order (shard i must run sgq_server --shard-of i/N)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgq;
  sgq_tools::Flags flags(argc, argv, 1);
  if (!flags.ok() ||
      !flags.Validate({"shards", "socket", "port", "host",
                       "on-shard-failure", "default-timeout",
                       "admin-timeout", "max-request-bytes",
                       "forward-shutdown", "cache-mb"})) {
    return Usage();
  }
  const std::string shards_csv = flags.Get("shards", "");
  if (shards_csv.empty()) {
    std::fprintf(stderr, "--shards is required\n");
    return Usage();
  }
  RouterServerConfig server_config;
  if (!sgq_tools::ReadListenFlags(flags, &server_config)) return Usage();

  RouterConfig router_config;
  std::string error;
  if (!ParseShardEndpoints(shards_csv, &router_config.shards, &error)) {
    std::fprintf(stderr, "bad --shards: %s\n", error.c_str());
    return 2;
  }
  if (!ParseShardFailurePolicy(flags.Get("on-shard-failure", "error"),
                               &router_config.on_shard_failure)) {
    std::fprintf(stderr, "--on-shard-failure must be error or degraded\n");
    return 2;
  }
  router_config.default_timeout_seconds =
      flags.GetDouble("default-timeout",
                      router_config.default_timeout_seconds);
  router_config.admin_timeout_seconds =
      flags.GetDouble("admin-timeout", router_config.admin_timeout_seconds);
  const std::string forward = flags.Get("forward-shutdown", "on");
  if (forward != "on" && forward != "off") {
    std::fprintf(stderr, "--forward-shutdown must be on or off\n");
    return 2;
  }
  router_config.forward_shutdown = forward == "on";

  server_config.cache_mb =
      static_cast<uint32_t>(flags.GetDouble("cache-mb", 0));

  RouterServer router(server_config, router_config);
  if (!router.Start(&error)) {
    std::fprintf(stderr, "failed to start: %s\n", error.c_str());
    return 1;
  }
  g_router = &router;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("sgq_router: %zu shards, policy %s, on %s\n",
              router_config.shards.size(),
              ToString(router_config.on_shard_failure),
              sgq_tools::ListenAddress(server_config, router.port()).c_str());
  std::fflush(stdout);

  router.Wait();
  g_router = nullptr;
  std::printf("sgq_router: stopped, final stats %s\n",
              router.Stats().ToJson().c_str());
  return 0;
}
