// `sgqbench drive`: the load generator. One process, at most --conns
// threads, one connection each. Every reply is checked against the keys
// written by `gen-dataset`; failures are recorded here and never inferred from the
// server's own counters.
//
// Phases, run back to back:
//   open    the result cache is cleared (CACHE CLEAR) and the stream's
//           warm-up queries sent; then Poisson arrivals on the precomputed
//           schedule. A request whose connection is still busy is sent
//           late, and its latency still counts from the scheduled time.
//   closed  rounds until --seconds have passed: each round clears the
//           cache, sends the warm-up queries, then the stream's closed
//           requests with every connection keeping one outstanding.
//
// The CPU time (user + system, every thread) the serving processes
// (--cpu-pids) spend on each closed round's requests, warm-up excluded, and
// the share of the guest's CPU time the hypervisor gave to other guests
// meanwhile (steal, from /proc/stat), are written to --cpu-out, one
// "round cpu_ns steal_frac" line per round. The guest kernel leaves stolen
// time out of a process's CPU time, so on a shared host this cost moves
// far less with the load of other tenants than wall time does; what is
// left of that movement shows in the rounds with high steal.
//
// Output (--out): one tab-separated record per request:
//   phase round kind index sched_ns send_ns done_ns status
// with phase o (open), w (warm-up) or c (closed), round 0 in the open
// phase, times relative to the phase or round start, and status one of OK,
// WRONG, TIMEOUT, OVERLOADED, BAD_REQUEST, DROP.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <time.h>

#include "common.h"
#include "router/shard_client.h"
#include "service/protocol.h"

namespace sgqbench {
namespace {

constexpr std::chrono::microseconds kSpinWindow{200};

// slot_gid_ value of an ADD that did not succeed.
constexpr uint32_t kFailedAdd = UINT32_MAX;

struct Record {
  char phase = 'o';
  uint32_t round = 0;
  char kind = 'Q';
  uint32_t index = 0;
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  const char* status = "DROP";
};

// Summed process CPU clocks of the serving processes.
class CpuMeter {
 public:
  bool Open(const std::string& pids) {
    std::stringstream list(pids);
    std::string pid;
    while (std::getline(list, pid, ',')) {
      clockid_t clock;
      if (clock_getcpuclockid(static_cast<pid_t>(std::atoll(pid.c_str())),
                              &clock) != 0) {
        return false;
      }
      clocks_.push_back(clock);
    }
    return !clocks_.empty();
  }
  int64_t Ns() const {
    int64_t total = 0;
    for (const clockid_t clock : clocks_) {
      timespec ts{};
      clock_gettime(clock, &ts);
      total += static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    }
    return total;
  }

 private:
  std::vector<clockid_t> clocks_;
};

// Steal and total jiffies of all CPUs, from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuJiffies ReadCpuJiffies() {
  CpuJiffies j;
  std::string text;
  if (!ReadFile("/proc/stat", &text)) return j;
  std::istringstream line(text.substr(0, text.find('\n')));
  std::string cpu;
  line >> cpu;
  uint64_t value = 0;
  for (int field = 0; line >> value; ++field) {
    if (field == 7) j.steal = value;
    j.total += value;
  }
  return j;
}

// One closed round's serving CPU time and the steal share during it.
struct RoundCpu {
  int64_t cpu_ns = 0;
  double steal_frac = 0;
};

// Answer ids at or above the base-graph count belong to graphs this run
// added; they are checked once every ADD reply of the run is in.
struct DeferredCheck {
  size_t record = 0;
  uint32_t pool_index = 0;
  uint32_t gid = 0;
};

class Driver {
 public:
  Driver(std::string socket, uint32_t base_graphs,
         std::vector<std::vector<uint32_t>> keys,
         std::vector<std::vector<uint32_t>> addkeys)
      : socket_(std::move(socket)),
        base_graphs_(base_graphs),
        keys_(std::move(keys)),
        addkeys_(std::move(addkeys)) {}

  // Each returns false when the cache could not be cleared.
  bool RunOpen(const Stream& stream, uint32_t conns,
               std::vector<Record>* records);
  // Appends each round's CPU time and steal share to *round_cpu.
  bool RunClosed(const Stream& stream, uint32_t conns, double seconds,
                 const CpuMeter& cpu, std::vector<Record>* records,
                 std::vector<RoundCpu>* round_cpu);
  // Checks the answers that hold ids of graphs the run added.
  void ResolveDeferred(std::vector<Record>* records);

 private:
  struct Conn {
    std::unique_ptr<sgq::ShardConnection> link;
  };

  // Sends one op and fills rec->status (and rec->done_ns).
  void Execute(Conn* conn, const Op& op, uint64_t round, Record* rec,
               size_t record_index);
  bool Exchange(Conn* conn, const std::string& wire, std::string* line);
  bool ReadLine(Conn* conn, std::string* line);
  const char* CheckQuery(Conn* conn, const Op& op, const std::string& head,
                         size_t record_index);
  // Clears the cache and sends the warm-up queries.
  bool Warm(const Stream& stream, uint32_t conns, uint32_t round,
            std::vector<Record>* records);
  // Sends `ops` with every connection keeping one outstanding.
  void RunRound(const std::vector<Op>& ops, uint32_t conns, char phase,
                uint32_t round, std::vector<Record>* records);

  uint64_t SlotKey(uint64_t round, uint32_t slot) const {
    return (round << 32) | slot;
  }

  const std::string socket_;
  const uint32_t base_graphs_;
  const std::vector<std::vector<uint32_t>> keys_;
  const std::vector<std::vector<uint32_t>> addkeys_;
  int64_t phase_start_ns_ = 0;

  std::mutex mu_;
  std::condition_variable added_cv_;
  std::map<uint64_t, uint32_t> slot_gid_;   // (round, slot) -> gid
  std::map<uint32_t, uint32_t> gid_add_;    // gid -> add-pool index
  std::vector<DeferredCheck> deferred_;
};

bool Driver::ReadLine(Conn* conn, std::string* line) {
  std::string error;
  const sgq::Deadline deadline =
      sgq::Deadline::AfterSeconds(kQueryTimeoutSeconds + 30);
  if (conn->link->ReadLine(deadline, line, &error)) return true;
  conn->link.reset();
  return false;
}

bool Driver::Exchange(Conn* conn, const std::string& wire,
                      std::string* line) {
  std::string error;
  if (conn->link == nullptr) {
    sgq::ShardEndpoint endpoint;
    endpoint.unix_path = socket_;
    conn->link = std::make_unique<sgq::ShardConnection>(endpoint);
  }
  if (!conn->link->Connect(&error) || !conn->link->Send(wire, &error)) {
    conn->link.reset();
    return false;
  }
  return ReadLine(conn, line);
}

const char* Driver::CheckQuery(Conn* conn, const Op& op,
                               const std::string& head_line,
                               size_t record_index) {
  const sgq::ResponseHead head = sgq::ParseResponseHead(head_line);
  switch (head.kind) {
    case sgq::ResponseHead::Kind::kOk:
    case sgq::ResponseHead::Kind::kTimeout:
      break;
    case sgq::ResponseHead::Kind::kOverloaded:
      return "OVERLOADED";
    case sgq::ResponseHead::Kind::kBadRequest:
      conn->link.reset();  // the server closes after a protocol error
      return "BAD_REQUEST";
    default:
      conn->link.reset();
      return "DROP";
  }
  std::string ids_line;
  std::vector<sgq::GraphId> ids;
  if (!head.has_count || !ReadLine(conn, &ids_line) ||
      !sgq::ParseIdsLine(ids_line, head.num_answers, &ids)) {
    conn->link.reset();
    return "DROP";
  }
  if (head.kind == sgq::ResponseHead::Kind::kTimeout) return "TIMEOUT";
  std::vector<uint32_t> base;
  std::vector<DeferredCheck> added;
  for (const sgq::GraphId id : ids) {
    if (id < base_graphs_) {
      base.push_back(id);
    } else {
      added.push_back({record_index, op.index, id});
    }
  }
  if (op.index >= keys_.size() || base != keys_[op.index]) return "WRONG";
  if (!added.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    deferred_.insert(deferred_.end(), added.begin(), added.end());
  }
  return "OK";
}

void Driver::Execute(Conn* conn, const Op& op, uint64_t round, Record* rec,
                     size_t record_index) {
  rec->kind = op.kind;
  rec->index = op.index;
  std::string line;
  if (op.kind == 'Q') {
    rec->send_ns = NowNs() - phase_start_ns_;
    rec->status = Exchange(conn, QueryWire(op.payload), &line)
                      ? CheckQuery(conn, op, line, record_index)
                      : "DROP";
  } else if (op.kind == 'A') {
    rec->send_ns = NowNs() - phase_start_ns_;
    sgq::GraphId gid = 0;
    if (!Exchange(conn, AddWire(op.payload), &line)) {
      rec->status = "DROP";
    } else if (!sgq::ParseAddedResponse(line, &gid)) {
      rec->status = sgq::ParseResponseHead(line).kind ==
                            sgq::ResponseHead::Kind::kOverloaded
                        ? "OVERLOADED"
                        : "WRONG";
    } else {
      rec->status = "OK";
    }
    // Publish the outcome either way, so the paired REMOVE never waits on
    // an ADD that failed.
    std::lock_guard<std::mutex> lock(mu_);
    slot_gid_[SlotKey(round, op.slot)] =
        std::string(rec->status) == "OK" ? gid : kFailedAdd;
    if (std::string(rec->status) == "OK") gid_add_[gid] = op.index;
    added_cv_.notify_all();
  } else {
    // The paired ADD is ~1/write_ratio requests earlier, so it has almost
    // always completed; if not, wait for it (the wait counts as latency).
    uint32_t gid = 0;
    bool known = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      known = added_cv_.wait_for(
          lock, std::chrono::seconds(kQueryTimeoutSeconds), [&] {
            return slot_gid_.count(SlotKey(round, op.slot)) > 0;
          });
      if (known) gid = slot_gid_[SlotKey(round, op.slot)];
    }
    known = known && gid != kFailedAdd;
    rec->send_ns = NowNs() - phase_start_ns_;
    sgq::GraphId removed = 0;
    if (!known) {
      rec->status = "DROP";  // its ADD failed
    } else if (!Exchange(conn, RemoveWire(gid), &line)) {
      rec->status = "DROP";
    } else if (!sgq::ParseRemovedResponse(line, &removed) ||
               removed != gid) {
      rec->status = sgq::ParseResponseHead(line).kind ==
                            sgq::ResponseHead::Kind::kOverloaded
                        ? "OVERLOADED"
                        : "WRONG";
    } else {
      rec->status = "OK";
    }
  }
  rec->done_ns = NowNs() - phase_start_ns_;
}

void Driver::ResolveDeferred(std::vector<Record>* records) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const DeferredCheck& check : deferred_) {
    const auto it = gid_add_.find(check.gid);
    const std::vector<uint32_t>& holders = addkeys_[check.pool_index];
    if (it == gid_add_.end() ||
        !std::binary_search(holders.begin(), holders.end(), it->second)) {
      (*records)[check.record].status = "WRONG";
    }
  }
  deferred_.clear();
}

bool Driver::RunOpen(const Stream& stream, uint32_t conns,
                     std::vector<Record>* records) {
  if (!Warm(stream, conns, 0, records)) return false;
  const std::vector<Op>& ops = stream.open;
  const size_t base = records->size();
  records->resize(base + ops.size());
  std::atomic<size_t> next{0};
  phase_start_ns_ = NowNs() + 20'000'000;  // all threads up before t=0
  const auto start = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(phase_start_ns_));
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < conns; ++t) {
    threads.emplace_back([&] {
      Conn conn;
      for (size_t i = next++; i < ops.size(); i = next++) {
        Record& rec = (*records)[base + i];
        rec.phase = 'o';
        rec.sched_ns = ops[i].sched_ns;
        // Sleep to just short of the due time, then spin: a sleeping
        // thread wakes tens of microseconds late, which would add client
        // jitter to sub-millisecond latencies.
        const auto due = start + std::chrono::nanoseconds(ops[i].sched_ns);
        std::this_thread::sleep_until(due - kSpinWindow);
        while (std::chrono::steady_clock::now() < due) {
        }
        Execute(&conn, ops[i], 0, &rec, base + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return true;
}

bool Driver::Warm(const Stream& stream, uint32_t conns, uint32_t round,
                  std::vector<Record>* records) {
  Conn admin;
  std::string line;
  if (!Exchange(&admin, "CACHE CLEAR\n", &line) ||
      line.rfind("OK", 0) != 0) {
    return false;
  }
  RunRound(stream.warm, conns, 'w', round, records);
  return true;
}

void Driver::RunRound(const std::vector<Op>& ops, uint32_t conns, char phase,
                      uint32_t round, std::vector<Record>* records) {
  const size_t base = records->size();
  records->resize(base + ops.size());
  std::atomic<size_t> next{0};
  phase_start_ns_ = NowNs();
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < conns; ++t) {
    threads.emplace_back([&] {
      Conn conn;
      for (size_t i = next++; i < ops.size(); i = next++) {
        Record& rec = (*records)[base + i];
        rec.phase = phase;
        rec.round = round;
        Execute(&conn, ops[i], round, &rec, base + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

bool Driver::RunClosed(const Stream& stream, uint32_t conns, double seconds,
                       const CpuMeter& cpu, std::vector<Record>* records,
                       std::vector<RoundCpu>* round_cpu) {
  const int64_t end_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint32_t round = 1; round == 1 || NowNs() < end_ns; ++round) {
    if (!Warm(stream, conns, round, records)) return false;
    const CpuJiffies host_start = ReadCpuJiffies();
    const int64_t cpu_start = cpu.Ns();
    RunRound(stream.closed, conns, 'c', round, records);
    const int64_t cpu_ns = cpu.Ns() - cpu_start;
    const CpuJiffies host_end = ReadCpuJiffies();
    const uint64_t total = host_end.total - host_start.total;
    round_cpu->push_back(
        {cpu_ns, total == 0 ? 0.0
                            : static_cast<double>(host_end.steal -
                                                  host_start.steal) /
                                  static_cast<double>(total)});
  }
  return true;
}

}  // namespace

// Flags: --dir DATASET --stream FILE --socket PATH --out FILE
//        --cpu-pids PID,PID,... --cpu-out FILE [--conns 4] [--seconds X]
int RunDrive(const Flags& flags) {
  const std::string dir = flags.Get("dir", "");
  const std::string socket = flags.Get("socket", "");
  const std::string out = flags.Get("out", "");
  const std::string cpu_out = flags.Get("cpu-out", "");
  const uint32_t conns =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetU64("conns", 4)));
  if (dir.empty() || socket.empty() || out.empty() || cpu_out.empty()) {
    std::fprintf(stderr, "drive: need --dir, --socket, --out and --cpu-out\n");
    return 2;
  }
  Stream stream;
  std::string error;
  std::vector<std::vector<uint32_t>> keys, addkeys;
  uint32_t base_graphs = 0;
  if (!LoadStream(flags.Get("stream", ""), &stream, &error) ||
      !LoadIdLists(dir + "/keys.txt", &keys) ||
      !LoadIdLists(dir + "/addkeys.txt", &addkeys) ||
      !LoadBaseGraphs(dir, &base_graphs)) {
    std::fprintf(stderr, "drive: bad inputs in %s %s\n", dir.c_str(),
                 error.c_str());
    return 1;
  }
  addkeys.resize(keys.size());
  CpuMeter cpu;
  if (!cpu.Open(flags.Get("cpu-pids", ""))) {
    std::fprintf(stderr, "drive: no CPU clock for --cpu-pids\n");
    return 1;
  }
  Driver driver(socket, base_graphs, std::move(keys), std::move(addkeys));
  // One client process drives both phases back to back.
  std::vector<Record> records;
  std::vector<RoundCpu> round_cpu;
  if (!driver.RunOpen(stream, conns, &records) ||
      !driver.RunClosed(stream, conns, flags.GetDouble("seconds", 5), cpu,
                        &records, &round_cpu)) {
    std::fprintf(stderr, "drive: CACHE CLEAR failed\n");
    return 1;
  }
  driver.ResolveDeferred(&records);
  std::string tsv;
  for (const Record& r : records) {
    tsv += r.phase;
    tsv += '\t' + std::to_string(r.round) + '\t';
    tsv += r.kind;
    tsv += '\t' + std::to_string(r.index) + '\t' + std::to_string(r.sched_ns) +
           '\t' + std::to_string(r.send_ns) + '\t' +
           std::to_string(r.done_ns) + '\t' + r.status + '\n';
  }
  std::string cpu_lines;
  for (size_t i = 0; i < round_cpu.size(); ++i) {
    cpu_lines += std::to_string(i + 1) + '\t' +
                 std::to_string(round_cpu[i].cpu_ns) + '\t' +
                 std::to_string(round_cpu[i].steal_frac) + '\n';
  }
  if (!WriteFile(out, tsv) || !WriteFile(cpu_out, cpu_lines)) {
    std::fprintf(stderr, "drive: cannot write its output\n");
    return 1;
  }
  return 0;
}

}  // namespace sgqbench
