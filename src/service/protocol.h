// The sgq wire protocol: a newline-delimited command line, optionally
// followed by a length-prefixed graph payload. Designed so a scripted
// client (or netcat) can drive the server with plain text while inline
// graphs of any size stay unambiguous.
//
// Requests:
//   QUERY <len> [timeout_s] [LIMIT <k>] [IDS] [STREAM]\n<len bytes of text>
//   QUERY @<path> [timeout_s] [LIMIT <k>] [IDS] [STREAM]\n  (server-side file)
//   ADD GRAPH <len> [ID <gid>]\n<len bytes of text>   (live insert, no quiesce)
//   ADD GRAPH @<path> [ID <gid>]\n       (same, graph read server-side)
//   REMOVE GRAPH <gid>\n                 (live delete by global id)
//   STATS\n
//   RELOAD [@<path>]\n                   (default: the path served at start)
//   CACHE CLEAR\n                        (drop every cached query result)
//   SHUTDOWN\n
//
// The payload is *exactly* <len> bytes; the next command starts immediately
// after it. `timeout_s` is a per-request deadline in seconds (fractional
// allowed); omitted or 0 means the server default. `LIMIT <k>` truncates the
// answer set to its first k graph ids (k >= 1; answers are sorted, so this
// is the k smallest ids — and with the streaming result pipeline the server
// stops enumerating at the k-th confirmed answer instead of truncating a
// full batch). `IDS` asks for the answer ids themselves — the partial-result
// framing the scatter-gather router needs to merge shards. `STREAM` asks for
// incremental delivery (below). LIMIT/IDS/STREAM may appear in any order but
// each at most once, and a bare timeout must come before them. A trailing
// '\r' on the command line is stripped, and blank lines between commands are
// ignored.
//
// Responses are a single line whose first token is the outcome:
//   OK <n_answers> <stats-json>          (query completed)
//   TIMEOUT <n_answers> <stats-json>     (deadline expired; partial answers)
//   OVERLOADED [retry_after_ms=<n>] [detail]
//                                        (admission queue full / draining;
//                                         the optional backoff hint derives
//                                         from queue depth x EWMA latency)
//   BAD_REQUEST <message>                (unparseable or oversized request)
//   OK <json>                            (STATS; includes a "cache" section)
//   OK reloaded <n> graphs               (RELOAD)
//   OK added <gid>                       (ADD GRAPH; gid = assigned global id)
//   OK removed <gid>                     (REMOVE GRAPH)
//   OK cache cleared                     (CACHE CLEAR)
//   BYE                                  (SHUTDOWN acknowledged)
// except that a query which asked for IDS gets one extra line directly
// after its OK/TIMEOUT line (and only then — error outcomes stay one line):
//   IDS <id_0> <id_1> ... <id_{n-1}>\n   (exactly n_answers ids, ascending)
//
// A STREAM query instead answers with zero or more IDS *chunk* lines,
// emitted incrementally while the scan runs, followed by the terminal
// OK/TIMEOUT line (admission errors stay a single OVERLOADED/BAD_REQUEST
// line — a client sees either chunks + terminal or one error line):
//   IDS <id...>\n         (any number of ids; chunks concatenate in order)
//   ...
//   OK <n_answers> <stats-json>\n        (n_answers == total streamed ids)
// The streamed id sequence is ascending and bit-identical to the IDS line
// the same query would produce in batch mode (with LIMIT k, to its first-k
// prefix); STREAM suppresses the trailing batch IDS line even when IDS is
// also given. The terminal line arrives after the last chunk, so a client
// can stop reading at it.
//
// A server without these extensions rejects the new grammar with a
// BAD_REQUEST and closes the connection (protocol errors are terminal), so
// a router talking to an old server fails cleanly instead of desyncing.
//
// Responses from a scatter-gather router additionally carry
// "shards_ok"/"shards_total" fields inside the stats json — under a
// degraded partial-failure policy, shards_ok < shards_total flags an answer
// that is missing the dead shards' graphs.
#ifndef SGQ_SERVICE_PROTOCOL_H_
#define SGQ_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "query/stats.h"

namespace sgq {

// Longest accepted command line (excluding the payload). Anything longer
// without a newline is a protocol error — it bounds buffering on garbage
// input.
inline constexpr size_t kMaxCommandLineBytes = 4096;

// Default cap on an inline QUERY payload; the server can lower or raise it.
inline constexpr size_t kDefaultMaxPayloadBytes = 16 * 1024 * 1024;

struct Request {
  enum class Verb {
    kQuery,
    kStats,
    kReload,
    kCacheClear,
    kShutdown,
    kAddGraph,     // ADD GRAPH: live insert (graph_text / file_ref payload)
    kRemoveGraph,  // REMOVE GRAPH <gid>
  };
  Verb verb = Verb::kStats;
  std::string graph_text;      // inline payload (QUERY/ADD GRAPH <len>)
  std::string file_ref;        // QUERY/ADD GRAPH @path / RELOAD @path
  double timeout_seconds = 0;  // 0 = server default
  uint64_t limit = 0;          // LIMIT <k>; 0 = unlimited
  bool want_ids = false;       // IDS: append the answer-id line
  bool stream = false;         // STREAM: incremental IDS chunk delivery
  // REMOVE GRAPH's target, or ADD GRAPH's pre-assigned id (a router
  // assigns ids centrally so every shard agrees; has_graph_id marks the
  // ID option present on an ADD).
  GraphId graph_id = 0;
  bool has_graph_id = false;
};

// Incremental request decoder. Feed() raw bytes as they arrive from the
// socket; Next() yields complete requests. A protocol error is terminal:
// the connection cannot be resynchronized and should be closed after
// sending BAD_REQUEST.
class RequestParser {
 public:
  explicit RequestParser(size_t max_payload_bytes = kDefaultMaxPayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  enum class Status {
    kNeedMore,  // no complete request buffered yet
    kReady,     // *request filled
    kError,     // *error filled; parser is dead
  };

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  Status Next(Request* request, std::string* error);

  // True when bytes of an incomplete request are buffered (used to flag a
  // truncated request when the peer disconnects mid-payload).
  bool HasPartial() const { return awaiting_payload_ || !buffer_.empty(); }

 private:
  Status ParseCommandLine(std::string_view line, std::string* error);

  size_t max_payload_bytes_;
  std::string buffer_;
  bool failed_ = false;
  bool awaiting_payload_ = false;  // header consumed, payload pending
  size_t payload_bytes_ = 0;
  Request pending_;
};

// --- Response formatting (shared by the server, router and tests) ---

// Shard-health summary a router splices into merged query stats. ok == total
// on a fully healthy fan-out; ok < total marks a degraded answer.
struct ShardHealth {
  uint32_t ok = 0;
  uint32_t total = 0;
};

// "OK <n> <json>\n" or "TIMEOUT <n> <json>\n" depending on
// result.stats.timed_out.
std::string FormatQueryResponse(const QueryResult& result);

// Same, with optional extensions: when `shards` is non-null the stats json
// gains "shards_ok"/"shards_total" fields (router responses), and when
// `with_ids` is set an "IDS ..." line follows the response line.
std::string FormatQueryResponse(const QueryResult& result,
                                const ShardHealth* shards, bool with_ids);

// "IDS <id_0> ... <id_{n-1}>\n" ("IDS\n" for an empty answer set).
std::string FormatIdsLine(std::span<const GraphId> ids);

// LIMIT semantics, shared by the shard server (per-shard truncation) and
// the router (post-merge truncation): keeps the first `limit` answers
// (answers are sorted ascending, so the smallest ids) and updates
// stats.num_answers to the truncated count. limit == 0 leaves everything.
void ApplyAnswerLimit(QueryResult* result, uint64_t limit);

// "OK added <gid>\n" / "OK removed <gid>\n" (ADD/REMOVE GRAPH success).
std::string FormatAddedResponse(GraphId global_id);
std::string FormatRemovedResponse(GraphId global_id);

std::string FormatOverloadedResponse(std::string_view detail = {});
// With a backoff hint: "OVERLOADED retry_after_ms=<n> [detail]". The hint
// precedes the free-form detail so a client that treats everything after
// the outcome token as detail still works; retry_after_ms == 0 omits it.
std::string FormatOverloadedResponse(std::string_view detail,
                                     uint64_t retry_after_ms);
std::string FormatBadRequestResponse(std::string_view message);

inline constexpr std::string_view kByeResponse = "BYE\n";
inline constexpr std::string_view kCacheClearedResponse = "OK cache cleared\n";

// --- Response decoding (router shard clients, sgq_client, tests) ---

// First line of any response, split into outcome + payload. For query
// responses (`OK <n> <json>` / `TIMEOUT <n> <json>`) `has_count` is set and
// `num_answers`/`body` hold the count and the stats json; for the other OK
// forms (`OK <json>`, `OK reloaded ...`) `body` is everything after the
// outcome token. kMalformed covers anything that is not a known outcome.
struct ResponseHead {
  enum class Kind { kOk, kTimeout, kOverloaded, kBadRequest, kBye, kMalformed };
  Kind kind = Kind::kMalformed;
  bool has_count = false;
  uint64_t num_answers = 0;
  std::string body;
};
ResponseHead ParseResponseHead(std::string_view line);

// Parses an "IDS ..." line; fails unless exactly `expected` ids are present,
// each fitting a GraphId.
bool ParseIdsLine(std::string_view line, uint64_t expected,
                  std::vector<GraphId>* ids);

// Parses a streamed IDS chunk line (any id count, including zero) and
// *appends* to *ids — chunks of one response concatenate in arrival order.
bool ParseIdsChunk(std::string_view line, std::vector<GraphId>* ids);

// Extracts the retry_after_ms=<n> hint from an OVERLOADED response body.
// False (out untouched) when the hint is absent or malformed.
bool ParseRetryAfterMs(std::string_view body, uint64_t* retry_after_ms);

// Parses "OK added <gid>" / "OK removed <gid>" response lines (the router's
// shard-side decode). False for any other line, including an id that does
// not fit a GraphId.
bool ParseAddedResponse(std::string_view line, GraphId* global_id);
bool ParseRemovedResponse(std::string_view line, GraphId* global_id);

// Parses an "OK reloaded <n> graphs" RELOAD reply. False for any other
// line, including a count that overflows 64 bits.
bool ParseReloadedCount(std::string_view line, uint64_t* count);

// Extracts "next_global_id":<n> from a server's STATS json (the key lives
// in the nested "update" object and is unique within the document). False
// when the key is absent, the value is not all digits, or it does not fit
// a GraphId.
bool ParseNextGlobalId(std::string_view stats_json, GraphId* next);

// Reads the flat json emitted by ToJson(QueryStats) back into a QueryStats.
// Unknown keys are ignored; missing keys stay zero. False on anything that
// is not a json object.
bool ParseQueryStatsJson(std::string_view json, QueryStats* stats);

// Extracts "shards_ok"/"shards_total" from a (router) stats json. False
// when the fields are absent — i.e. the response came from a plain server —
// or malformed: a total beyond uint32, or more shards ok than in total.
bool ParseShardHealth(std::string_view json, ShardHealth* health);

}  // namespace sgq

#endif  // SGQ_SERVICE_PROTOCOL_H_
