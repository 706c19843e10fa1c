// sgq_client: scripted client for sgq_server and sgq_router. Sends queries
// (inline, length-prefixed) over one or more concurrent connections and
// prints the per-request response lines plus a summary of outcomes.
//
//   sgq_client (--socket PATH | --host H --port N) --op query
//              (--graph one.txt | --queries many.txt)
//              [--timeout S] [--repeat 1] [--connections 1] [--quiet 0]
//              [--limit K] [--ids 1] [--stream 1] [--write-ratio R]
//              [--bench-json FILE] [--bench-name NAME]
//   sgq_client ... --op add --graph new_graph.txt
//   sgq_client ... --op remove --id N
//   sgq_client ... --op stats
//   sgq_client ... --op reload [--db new_db.txt]
//   sgq_client ... --op cache-clear
//   sgq_client ... --op shutdown
//
// --op add sends the file's first graph as a live `ADD GRAPH` (the server
// or router assigns and prints the global id); --op remove sends
// `REMOVE GRAPH <id>`. --write-ratio R (0 < R < 1) turns the query flood
// into a mixed read/write stream: a deterministic R-fraction of the work
// items become mutations — alternating ADDs (of the loaded query graphs)
// and REMOVEs of ids this run added — and the summary reports mutation
// latency percentiles next to the query percentiles.
//
// After a query run the summary line is followed by per-request latency
// percentiles (p50/p95/p99) and the aggregate throughput across all
// connections. Latency is measured from the moment the request has been
// written to the first byte of its response — connection setup (and any
// mid-run reconnect) is excluded, so routed and direct runs compare
// apples-to-apples. Percentiles, throughput and the --bench-json record
// count served replies only (OK or TIMEOUT): an OVERLOADED refusal or a
// BAD reply comes back almost at once and would flatter them. Refusals
// stay counted in the summary line.
//
// --stream 1 sends STREAM queries: answer ids arrive as incremental IDS
// chunk lines before the terminal OK/TIMEOUT line. The summary then also
// reports time-to-first-embedding (request written -> first id received),
// the headline win of the streaming pipeline. OVERLOADED rejections may
// carry a retry_after_ms backoff hint; the summary reports the largest
// hint seen.
//
// A dropped connection is re-dialed once per work item; only a request
// that fails again on the fresh connection counts as dropped.
//
// --bench-json FILE appends the run as a BENCH_*.json record (suite
// "service_flood", record name --bench-name). An existing snapshot at
// FILE is merged: a record with the same name is replaced, others are
// kept — so one file can hold the single-server and routed
// configurations side by side. See bench/bench_common.h.
//
// Exit status: 0 when every response was OK (or the single control verb
// succeeded), 1 when any request failed or the connection dropped.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/timer.h"

#include "bench/bench_common.h"
#include "graph/graph_io.h"
#include "service/protocol.h"
#include "tool_flags.h"
#include "util/socket.h"

namespace {

using namespace sgq;

int Usage() {
  std::fprintf(
      stderr,
      "usage: sgq_client (--socket PATH | --host H --port N)\n"
      "                  --op query (--graph FILE | --queries FILE)\n"
      "                  [--timeout S] [--repeat N] [--connections C] "
      "[--quiet 1]\n"
      "                  [--limit K] [--ids 1] [--stream 1] "
      "[--write-ratio R]\n"
      "                  [--bench-json FILE] [--bench-name NAME]\n"
      "       sgq_client ... --op add --graph FILE\n"
      "       sgq_client ... --op remove --id N\n"
      "       sgq_client ... --op stats|reload|cache-clear|shutdown "
      "[--db FILE]\n");
  return 2;
}

UniqueFd Connect(const sgq_tools::Flags& flags, std::string* error) {
  const std::string socket_path = flags.Get("socket", "");
  if (!socket_path.empty()) return ConnectUnix(socket_path, error);
  if (!flags.Has("port")) {
    *error = "one of --socket or --port is required";
    return UniqueFd();
  }
  return ConnectTcp(flags.Get("host", "127.0.0.1"),
                    static_cast<uint16_t>(flags.GetDouble("port", 0)), error);
}

// Reads one '\n'-terminated response line (the newline is stripped).
// When `first_byte_ms` is non-null it receives the time from the call —
// i.e. from just after the request was written — to the first byte of the
// response: the latency the server (or router fan-out) actually added.
bool ReadLine(int fd, std::string* line, double* first_byte_ms = nullptr) {
  line->clear();
  WallTimer timer;
  char c;
  for (;;) {
    const ssize_t n = ReadSome(fd, &c, 1);
    if (n <= 0) return false;
    if (first_byte_ms != nullptr) {
      *first_byte_ms = timer.ElapsedMillis();
      first_byte_ms = nullptr;
    }
    if (c == '\n') return true;
    *line += c;
  }
}

struct OutcomeCounts {
  uint64_t ok = 0, timeout = 0, overloaded = 0, bad = 0, dropped = 0;
};

// Nearest-rank percentile over a sorted sample; q in (0, 100].
double PercentileMs(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q / 100.0 * sorted_ms.size())));
  return sorted_ms[std::min(rank, sorted_ms.size()) - 1];
}

// True for a reply the server actually served (OK, or TIMEOUT with the
// answers confirmed so far) — the only replies whose latency is recorded.
bool Served(const std::string& line) {
  return line.rfind("OK", 0) == 0 || line.rfind("TIMEOUT", 0) == 0;
}

void CountResponse(const std::string& line, OutcomeCounts* counts) {
  if (line.rfind("OK", 0) == 0) {
    ++counts->ok;
  } else if (line.rfind("TIMEOUT", 0) == 0) {
    ++counts->timeout;
  } else if (line.rfind("OVERLOADED", 0) == 0) {
    ++counts->overloaded;
  } else {
    ++counts->bad;
  }
}

// One request/response exchange; false on a connection-level failure
// (write error, read error, or a malformed IDS continuation). In stream
// mode the exchange consumes IDS chunk lines until the terminal outcome
// line, counting streamed ids and timing the first one.
bool ExchangeOnce(int fd, const std::string& header,
                  const std::string& payload, bool want_ids, bool stream,
                  std::string* line, std::string* ids_line,
                  double* latency_ms, double* first_embedding_ms,
                  uint64_t* streamed_ids) {
  if (!WriteAll(fd, header) || !WriteAll(fd, payload)) return false;
  ids_line->clear();
  if (!stream) {
    if (!ReadLine(fd, line, latency_ms)) return false;
    if (want_ids) {
      // Only OK/TIMEOUT carry the IDS continuation line.
      const ResponseHead head = ParseResponseHead(*line);
      if (head.has_count && !ReadLine(fd, ids_line)) return false;
    }
    return true;
  }
  WallTimer timer;
  *first_embedding_ms = -1;  // no embedding received
  *streamed_ids = 0;
  bool first_line = true;
  std::vector<GraphId> chunk;
  for (;;) {
    if (!ReadLine(fd, line, first_line ? latency_ms : nullptr)) return false;
    first_line = false;
    if (line->rfind("IDS", 0) != 0) return true;  // terminal line
    chunk.clear();
    if (!ParseIdsChunk(*line, &chunk)) return false;
    if (*first_embedding_ms < 0 && !chunk.empty()) {
      *first_embedding_ms = timer.ElapsedMillis();
    }
    *streamed_ids += chunk.size();
  }
}

int RunQueries(const sgq_tools::Flags& flags) {
  GraphDatabase queries;
  std::string error;
  const std::string graph_path = flags.Get("graph", "");
  const std::string queries_path = flags.Get("queries", "");
  if (graph_path.empty() == queries_path.empty()) {
    std::fprintf(stderr, "--op query needs exactly one of --graph/--queries\n");
    return 2;
  }
  const std::string path = graph_path.empty() ? queries_path : graph_path;
  if (!LoadDatabase(path, &queries, &error)) {
    std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  const int repeat = std::max(1, static_cast<int>(flags.GetDouble("repeat", 1)));
  const int connections =
      std::max(1, static_cast<int>(flags.GetDouble("connections", 1)));
  const double timeout = flags.GetDouble("timeout", 0);
  const bool quiet = flags.GetDouble("quiet", 0) != 0;
  const uint64_t limit =
      static_cast<uint64_t>(std::max(0.0, flags.GetDouble("limit", 0)));
  const bool want_ids = flags.GetDouble("ids", 0) != 0;
  const bool stream = flags.GetDouble("stream", 0) != 0;
  const double write_ratio = flags.GetDouble("write-ratio", 0);
  if (write_ratio < 0 || write_ratio >= 1) {
    std::fprintf(stderr, "--write-ratio must be in [0, 1)\n");
    return 2;
  }

  // Pre-serialize each query once; every connection replays its share.
  std::vector<std::string> payloads;
  for (GraphId i = 0; i < queries.size(); ++i) {
    payloads.push_back(SerializeGraph(queries.graph(i), i));
  }

  std::mutex print_mu;
  OutcomeCounts totals;
  std::vector<double> latencies_ms;  // merged under print_mu at thread exit
  std::vector<double> first_embedding_ms_all;  // stream mode, non-empty only
  std::vector<double> mutation_latencies_ms;   // write-ratio mode only
  uint64_t max_retry_after_ms = 0;
  bool connect_failed = false;
  WallTimer run_timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::string conn_error;
      UniqueFd fd = Connect(flags, &conn_error);
      OutcomeCounts counts;
      std::vector<double> thread_latencies_ms;
      std::vector<double> thread_first_embedding_ms;
      std::vector<double> thread_mutation_ms;
      std::vector<GraphId> added_gids;  // live ADDs this thread made
      uint64_t mutations_done = 0;
      uint64_t thread_max_retry_ms = 0;
      if (!fd.valid()) {
        std::lock_guard<std::mutex> lock(print_mu);
        std::fprintf(stderr, "connection %d: %s\n", c, conn_error.c_str());
        connect_failed = true;
        return;
      }
      // Round-robin: connection c takes work items c, c+C, c+2C, ...
      const size_t total = payloads.size() * static_cast<size_t>(repeat);
      for (size_t w = static_cast<size_t>(c); w < total;
           w += static_cast<size_t>(connections)) {
        // A deterministic write_ratio-fraction of the work items become
        // mutations (hash of the item index, so re-runs pick the same
        // items). ADDs and REMOVEs of this thread's own additions
        // alternate, keeping the database size roughly constant.
        const bool mutate =
            write_ratio > 0 &&
            static_cast<double>((w * 2654435761ull) % 1000) <
                write_ratio * 1000.0;
        if (mutate) {
          const bool remove =
              !added_gids.empty() && (mutations_done % 2) == 1;
          ++mutations_done;
          std::string mut_header, mut_payload;
          if (remove) {
            mut_header =
                "REMOVE GRAPH " + std::to_string(added_gids.back()) + "\n";
          } else {
            mut_payload = payloads[w % payloads.size()];
            mut_header =
                "ADD GRAPH " + std::to_string(mut_payload.size()) + "\n";
          }
          std::string line, ids_line;
          double latency_ms = 0;
          double unused_fe = -1;
          uint64_t unused_ids = 0;
          bool sent = ExchangeOnce(fd.get(), mut_header, mut_payload, false,
                                   false, &line, &ids_line, &latency_ms,
                                   &unused_fe, &unused_ids);
          if (!sent) {
            fd = Connect(flags, &conn_error);
            sent = fd.valid() &&
                   ExchangeOnce(fd.get(), mut_header, mut_payload, false,
                                false, &line, &ids_line, &latency_ms,
                                &unused_fe, &unused_ids);
          }
          if (!sent) {
            ++counts.dropped;
            break;
          }
          if (Served(line)) thread_mutation_ms.push_back(latency_ms);
          GraphId gid = 0;
          if (remove) {
            if (ParseRemovedResponse(line, &gid)) added_gids.pop_back();
          } else if (ParseAddedResponse(line, &gid)) {
            added_gids.push_back(gid);
          }
          CountResponse(line, &counts);
          if (!quiet) {
            std::lock_guard<std::mutex> lock(print_mu);
            std::printf("[conn %d] %s\n", c, line.c_str());
          }
          continue;
        }
        const std::string& payload = payloads[w % payloads.size()];
        std::string header = "QUERY ";
        header += std::to_string(payload.size());
        if (timeout > 0) {
          header += ' ';
          header += std::to_string(timeout);
        }
        if (limit > 0) {
          header += " LIMIT ";
          header += std::to_string(limit);
        }
        if (want_ids) header += " IDS";
        if (stream) header += " STREAM";
        header += '\n';
        std::string line, ids_line;
        double latency_ms = 0;
        double first_embedding_ms = -1;
        uint64_t streamed_ids = 0;
        bool sent = ExchangeOnce(fd.get(), header, payload, want_ids, stream,
                                 &line, &ids_line, &latency_ms,
                                 &first_embedding_ms, &streamed_ids);
        if (!sent) {
          // The server may have restarted between requests; one fresh
          // dial distinguishes a restart from a down server. The retried
          // request gets a fresh latency measurement, so reconnect cost
          // never pollutes the percentiles.
          fd = Connect(flags, &conn_error);
          sent = fd.valid() &&
                 ExchangeOnce(fd.get(), header, payload, want_ids, stream,
                              &line, &ids_line, &latency_ms,
                              &first_embedding_ms, &streamed_ids);
        }
        if (!sent) {
          ++counts.dropped;
          break;
        }
        if (stream) {
          // The terminal count must equal what was streamed.
          const ResponseHead head = ParseResponseHead(line);
          if (head.has_count && head.num_answers != streamed_ids) {
            ++counts.bad;
            continue;
          }
        }
        if (Served(line)) {
          thread_latencies_ms.push_back(latency_ms);
          if (stream && first_embedding_ms >= 0) {
            thread_first_embedding_ms.push_back(first_embedding_ms);
          }
        }
        if (line.rfind("OVERLOADED", 0) == 0) {
          uint64_t retry_ms = 0;
          const ResponseHead head = ParseResponseHead(line);
          if (ParseRetryAfterMs(head.body, &retry_ms)) {
            thread_max_retry_ms = std::max(thread_max_retry_ms, retry_ms);
          }
        }
        CountResponse(line, &counts);
        if (!quiet) {
          std::lock_guard<std::mutex> lock(print_mu);
          std::printf("[conn %d] %s\n", c, line.c_str());
          if (!ids_line.empty()) {
            std::printf("[conn %d] %s\n", c, ids_line.c_str());
          }
        }
      }
      std::lock_guard<std::mutex> lock(print_mu);
      totals.ok += counts.ok;
      totals.timeout += counts.timeout;
      totals.overloaded += counts.overloaded;
      totals.bad += counts.bad;
      totals.dropped += counts.dropped;
      latencies_ms.insert(latencies_ms.end(), thread_latencies_ms.begin(),
                          thread_latencies_ms.end());
      first_embedding_ms_all.insert(first_embedding_ms_all.end(),
                                    thread_first_embedding_ms.begin(),
                                    thread_first_embedding_ms.end());
      mutation_latencies_ms.insert(mutation_latencies_ms.end(),
                                   thread_mutation_ms.begin(),
                                   thread_mutation_ms.end());
      max_retry_after_ms = std::max(max_retry_after_ms, thread_max_retry_ms);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds = run_timer.ElapsedMillis() / 1e3;

  std::printf("summary: ok %llu, timeout %llu, overloaded %llu, bad %llu, "
              "dropped %llu\n",
              static_cast<unsigned long long>(totals.ok),
              static_cast<unsigned long long>(totals.timeout),
              static_cast<unsigned long long>(totals.overloaded),
              static_cast<unsigned long long>(totals.bad),
              static_cast<unsigned long long>(totals.dropped));
  const double throughput =
      wall_seconds > 0
          ? static_cast<double>(latencies_ms.size()) / wall_seconds
          : 0.0;
  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    std::printf(
        "latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms (%zu requests)\n",
        PercentileMs(latencies_ms, 50), PercentileMs(latencies_ms, 95),
        PercentileMs(latencies_ms, 99), latencies_ms.size());
    std::printf("throughput: %.1f req/s over %.3f s (%d connections)\n",
                throughput, wall_seconds, connections);
  }
  if (!mutation_latencies_ms.empty()) {
    std::sort(mutation_latencies_ms.begin(), mutation_latencies_ms.end());
    std::printf(
        "mutation latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms "
        "(%zu mutations)\n",
        PercentileMs(mutation_latencies_ms, 50),
        PercentileMs(mutation_latencies_ms, 95),
        PercentileMs(mutation_latencies_ms, 99),
        mutation_latencies_ms.size());
  }
  if (stream && !first_embedding_ms_all.empty()) {
    std::sort(first_embedding_ms_all.begin(), first_embedding_ms_all.end());
    std::printf(
        "first-embedding: p50 %.3f ms, p95 %.3f ms (%zu streamed replies)\n",
        PercentileMs(first_embedding_ms_all, 50),
        PercentileMs(first_embedding_ms_all, 95),
        first_embedding_ms_all.size());
  }
  if (max_retry_after_ms > 0) {
    std::printf("backoff: largest retry_after_ms hint %llu\n",
                static_cast<unsigned long long>(max_retry_after_ms));
  }

  const std::string bench_json = flags.Get("bench-json", "");
  if (!bench_json.empty() && !latencies_ms.empty()) {
    double sum_ms = 0;
    for (const double ms : latencies_ms) sum_ms += ms;
    bench::BenchRecord record;
    record.name = flags.Get("bench-name", "flood");
    record.iterations = latencies_ms.size();
    record.ns_per_op = sum_ms / static_cast<double>(latencies_ms.size()) * 1e6;
    record.counters = {
        {"p50_ms", PercentileMs(latencies_ms, 50)},
        {"p95_ms", PercentileMs(latencies_ms, 95)},
        {"p99_ms", PercentileMs(latencies_ms, 99)},
        {"throughput_rps", throughput},
        {"connections", static_cast<double>(connections)},
        {"ok", static_cast<double>(totals.ok)},
        {"timeout", static_cast<double>(totals.timeout)},
        {"overloaded", static_cast<double>(totals.overloaded)},
        {"dropped", static_cast<double>(totals.dropped)},
    };
    if (stream && !first_embedding_ms_all.empty()) {
      record.counters.emplace_back(
          "ttfe_p50_ms", PercentileMs(first_embedding_ms_all, 50));
      record.counters.emplace_back(
          "ttfe_p95_ms", PercentileMs(first_embedding_ms_all, 95));
    }
    if (!mutation_latencies_ms.empty()) {
      const double mut_count =
          static_cast<double>(mutation_latencies_ms.size());
      record.counters.emplace_back("write_ratio", write_ratio);
      record.counters.emplace_back("mutations", mut_count);
      record.counters.emplace_back(
          "mutations_per_s", wall_seconds > 0 ? mut_count / wall_seconds : 0);
      record.counters.emplace_back("mut_p50_ms",
                                   PercentileMs(mutation_latencies_ms, 50));
      record.counters.emplace_back("mut_p95_ms",
                                   PercentileMs(mutation_latencies_ms, 95));
      record.counters.emplace_back("mut_p99_ms",
                                   PercentileMs(mutation_latencies_ms, 99));
    }
    // Merge-by-name into any existing snapshot so the direct and routed
    // configurations of one bench run share a file. An existing snapshot
    // keeps its suite name (run_dynamic_bench.sh merges a served-mutations
    // record into the "dynamic" suite).
    std::vector<bench::BenchRecord> records;
    std::string suite = "service_flood";
    if (bench::ReadBenchJson(bench_json, &suite, &records)) {
      records.erase(std::remove_if(records.begin(), records.end(),
                                   [&](const bench::BenchRecord& r) {
                                     return r.name == record.name;
                                   }),
                    records.end());
    } else {
      suite = "service_flood";
      records.clear();
    }
    records.push_back(std::move(record));
    if (!bench::WriteBenchJson(bench_json, suite, records)) {
      std::fprintf(stderr, "failed to write %s\n", bench_json.c_str());
      return 1;
    }
    std::printf("bench: wrote %s (%zu records)\n", bench_json.c_str(),
                records.size());
  }
  return (connect_failed || totals.bad > 0 || totals.dropped > 0) ? 1 : 0;
}

// One-shot live mutation: sends ADD GRAPH (payload = the first graph in
// --graph, serialized in the wire text-graph codec) or REMOVE GRAPH and
// prints the server's response line ("OK added <gid>" / "OK removed <gid>").
int RunMutation(const sgq_tools::Flags& flags, const std::string& op) {
  std::string error, command, payload;
  if (op == "add") {
    const std::string graph_path = flags.Get("graph", "");
    if (graph_path.empty()) {
      std::fprintf(stderr, "--op add needs --graph FILE\n");
      return 2;
    }
    GraphDatabase graphs;
    if (!LoadDatabase(graph_path, &graphs, &error) || graphs.size() == 0) {
      std::fprintf(stderr, "failed to load %s: %s\n", graph_path.c_str(),
                   error.empty() ? "no graphs in file" : error.c_str());
      return 1;
    }
    payload = SerializeGraph(graphs.graph(0), 0);
    command = "ADD GRAPH " + std::to_string(payload.size()) + "\n";
  } else {  // remove
    if (!flags.Has("id")) {
      std::fprintf(stderr, "--op remove needs --id N\n");
      return 2;
    }
    command = "REMOVE GRAPH " +
              std::to_string(
                  static_cast<uint64_t>(flags.GetDouble("id", 0))) +
              "\n";
  }
  UniqueFd fd = Connect(flags, &error);
  if (!fd.valid()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string line;
  if (!WriteAll(fd.get(), command) || !WriteAll(fd.get(), payload) ||
      !ReadLine(fd.get(), &line)) {
    std::fprintf(stderr, "connection dropped\n");
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return line.rfind("OK", 0) == 0 ? 0 : 1;
}

int RunControl(const sgq_tools::Flags& flags, const std::string& op) {
  std::string error;
  UniqueFd fd = Connect(flags, &error);
  if (!fd.valid()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::string command;
  if (op == "stats") {
    command = "STATS\n";
  } else if (op == "shutdown") {
    command = "SHUTDOWN\n";
  } else if (op == "cache-clear") {
    command = "CACHE CLEAR\n";
  } else {  // reload
    const std::string db = flags.Get("db", "");
    command = db.empty() ? "RELOAD\n" : "RELOAD @" + db + "\n";
  }
  std::string line;
  if (!WriteAll(fd.get(), command) || !ReadLine(fd.get(), &line)) {
    std::fprintf(stderr, "connection dropped\n");
    return 1;
  }
  std::printf("%s\n", line.c_str());
  const bool ok = line.rfind("OK", 0) == 0 || line.rfind("BYE", 0) == 0;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sgq_tools::Flags flags(argc, argv, 1);
  if (!flags.ok() ||
      !flags.Validate({"socket", "host", "port", "op", "graph", "queries",
                       "timeout", "repeat", "connections", "quiet", "db",
                       "limit", "ids", "stream", "write-ratio", "id",
                       "bench-json", "bench-name"})) {
    return Usage();
  }
  const std::string op = flags.Get("op", "query");
  if (op == "query") return RunQueries(flags);
  if (op == "add" || op == "remove") return RunMutation(flags, op);
  if (op == "stats" || op == "reload" || op == "cache-clear" ||
      op == "shutdown") {
    return RunControl(flags, op);
  }
  std::fprintf(stderr, "unknown --op: %s\n", op.c_str());
  return Usage();
}
