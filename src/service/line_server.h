// The socket-serving core shared by sgq_server and sgq_router: listens on a
// Unix-domain or TCP socket, runs one thread per connection that feeds the
// line protocol of service/protocol.h through a RequestParser, and hands
// every complete request to a Dispatcher — the only part that differs
// between a shard server and the router.
//
// Shutdown is graceful: stop is requested asynchronously (safe from a
// signal handler), after which the listener closes, the dispatcher drains
// its admitted work (connection threads blocked on it get their
// responses), every connection thread flushes and exits once its client
// goes idle, and a Unix socket file is unlinked.
#ifndef SGQ_SERVICE_LINE_SERVER_H_
#define SGQ_SERVICE_LINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "util/socket.h"

namespace sgq {

// Where a front end listens. Exactly one of the two: a Unix socket path,
// or a TCP port (with `port == 0` picking an ephemeral port, see
// LineServer::port()).
struct ListenConfig {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = -1;  // >= 0 enables TCP when unix_path is empty

  size_t max_payload_bytes = kDefaultMaxPayloadBytes;
};

// The verb handling behind a LineServer. Dispatch and CountBadRequest run
// on connection threads, concurrently; Drain runs once, on the accept
// thread, during shutdown.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  // Answers one parsed request on `fd`. False closes the connection.
  virtual bool Dispatch(int fd, const Request& request) = 0;
  // Counts a request the parser rejected (LineServer answers it with
  // BAD_REQUEST and closes the connection).
  virtual void CountBadRequest() = 0;
  // Completes admitted work after the listener closed and before the
  // connection threads are joined.
  virtual void Drain() = 0;
};

class LineServer {
 public:
  // `dispatcher` must outlive the server.
  LineServer(ListenConfig config, Dispatcher* dispatcher);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  // Binds the socket and starts the accept thread. False + *error on any
  // failure, with nothing left running.
  bool Start(std::string* error);

  // Resolved TCP port (after Start with port 0); 0 for Unix sockets.
  uint16_t port() const { return port_; }

  // Initiates graceful shutdown. Async-signal-safe: only flips an atomic
  // and writes one byte to a pipe. Idempotent.
  void RequestStop();

  // Blocks until the server has fully stopped (listener closed, dispatcher
  // drained, all threads joined).
  void Wait();

 private:
  void AcceptLoop();
  void HandleConnection(UniqueFd fd);

  const ListenConfig config_;
  Dispatcher* const dispatcher_;
  UniqueFd listener_;
  UniqueFd stop_pipe_rd_, stop_pipe_wr_;
  std::atomic<bool> stopping_{false};
  uint16_t port_ = 0;
  std::vector<std::thread> connections_;  // accept thread only
  std::thread accept_thread_;
};

// Reads a whole file (QUERY / ADD GRAPH @path payloads, resolved on the
// serving host). False + *error when it cannot be opened.
bool ReadFileToString(const std::string& path, std::string* contents,
                      std::string* error);

}  // namespace sgq

#endif  // SGQ_SERVICE_LINE_SERVER_H_
