// Socket front end for QueryService: a LineServer (service/line_server.h)
// whose Dispatcher executes the line-protocol verbs against one service.
// Shutdown drains admitted queries before the connection threads join.
//
// The serve loop lives in the library (not the tool) so tests can run a
// real server in-process over a Unix socket, including under TSan.
#ifndef SGQ_SERVICE_SERVER_H_
#define SGQ_SERVICE_SERVER_H_

#include <cstdint>
#include <string>

#include "service/line_server.h"
#include "service/query_service.h"

namespace sgq {

struct ServerConfig : ListenConfig {
  // Database file served at startup; also the default RELOAD target.
  std::string db_path;
  // Shard identity (`--shard-of i/M`). With shard_count > 1 the server
  // keeps only its own slice of the database (see router/shard_map.h) and
  // reports answers under their global ids; RELOAD re-applies the filter.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
};

class SocketServer : private Dispatcher {
 public:
  SocketServer(ServerConfig server_config, ServiceConfig service_config);

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Prepares the service over `db`, binds the socket, and starts serving
  // in background threads. False + *error on any failure.
  bool Start(GraphDatabase db, std::string* error);

  // Resolved TCP port (after Start with port 0); 0 for Unix sockets.
  uint16_t port() const { return line_.port(); }

  // Initiates graceful shutdown. Async-signal-safe: only flips an atomic
  // and writes one byte to a pipe. Idempotent.
  void RequestStop() { line_.RequestStop(); }

  // Blocks until the server has fully stopped (listener closed, queries
  // drained, all threads joined).
  void Wait() { line_.Wait(); }

  ServiceStatsSnapshot Stats() const { return service_.Stats(); }

 private:
  bool Dispatch(int fd, const Request& request) override;
  void CountBadRequest() override { service_.CountBadRequest(); }
  void Drain() override { service_.Shutdown(); }

  const ServerConfig config_;
  QueryService service_;
  // Declared last: its destructor stops serving (draining the service)
  // before the service itself is destroyed.
  LineServer line_;
};

}  // namespace sgq

#endif  // SGQ_SERVICE_SERVER_H_
