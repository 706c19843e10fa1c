#include "service/line_server.h"

#include <poll.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <utility>

namespace sgq {

namespace {

// How long a connection thread sleeps in poll() before re-checking the
// server's stop flag; bounds shutdown latency for idle connections.
constexpr int kConnectionPollMs = 100;

}  // namespace

bool ReadFileToString(const std::string& path, std::string* contents,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *contents = buffer.str();
  return true;
}

LineServer::LineServer(ListenConfig config, Dispatcher* dispatcher)
    : config_(std::move(config)), dispatcher_(dispatcher) {}

LineServer::~LineServer() {
  RequestStop();
  Wait();
}

bool LineServer::Start(std::string* error) {
  if (stop_pipe_wr_.valid()) {
    *error = "server already started";
    return false;
  }
  if (config_.unix_path.empty() && config_.port < 0) {
    *error = "set ListenConfig::unix_path or ListenConfig::port";
    return false;
  }
  if (!config_.unix_path.empty()) {
    listener_ = ListenUnix(config_.unix_path, error);
  } else {
    listener_ = ListenTcp(config_.host, static_cast<uint16_t>(config_.port),
                          &port_, error);
  }
  if (!listener_.valid()) return false;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = "pipe() failed";
    listener_.Reset();
    return false;
  }
  stop_pipe_rd_ = UniqueFd(pipe_fds[0]);
  stop_pipe_wr_ = UniqueFd(pipe_fds[1]);
  accept_thread_ = std::thread(&LineServer::AcceptLoop, this);
  return true;
}

void LineServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_wr_.valid()) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_wr_.get(), &byte, 1);
  }
}

void LineServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void LineServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listener_.get(), POLLIN, 0};
    fds[1] = {stop_pipe_rd_.get(), POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) continue;  // EINTR
    if (fds[1].revents != 0 || stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if (fds[0].revents == 0) continue;
    // A finished connection's thread keeps its stack mapped until it is
    // joined, so reap before adding another: the threads held stay bounded
    // by the live connections, not by every connection ever served.
    ReapFinishedConnections();
    UniqueFd conn = AcceptConnection(listener_.get());
    if (!conn.valid()) continue;
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->thread = std::thread([this, raw, fd = std::move(conn)]() mutable {
      HandleConnection(std::move(fd));
      raw->done.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(connection));
  }
  // Graceful teardown: no new connections, drain every admitted request
  // (connection threads blocked on one get their responses), then wait for
  // the connection threads to flush and exit.
  listener_.Reset();
  dispatcher_->Drain();
  for (auto& connection : connections_) connection->thread.join();
  connections_.clear();
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void LineServer::ReapFinishedConnections() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    c->thread.join();
    return true;
  });
}

void LineServer::HandleConnection(UniqueFd fd) {
  RequestParser parser(config_.max_payload_bytes);
  char buf[4096];
  for (;;) {
    // Serve every complete request already buffered before reading more.
    Request request;
    std::string parse_error;
    const RequestParser::Status status = parser.Next(&request, &parse_error);
    if (status == RequestParser::Status::kReady) {
      if (!dispatcher_->Dispatch(fd.get(), request)) return;
      continue;
    }
    if (status == RequestParser::Status::kError) {
      dispatcher_->CountBadRequest();
      WriteAll(fd.get(), FormatBadRequestResponse(parse_error));
      return;  // cannot resynchronize a broken byte stream
    }
    const int ready = PollReadable(fd.get(), kConnectionPollMs);
    if (ready < 0) return;
    if (ready == 0) {
      // Idle: during shutdown there is nothing more to wait for.
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    const ssize_t n = ReadSome(fd.get(), buf, sizeof(buf));
    if (n <= 0) return;  // peer closed (possibly mid-request) or error
    parser.Feed({buf, static_cast<size_t>(n)});
  }
}

}  // namespace sgq
