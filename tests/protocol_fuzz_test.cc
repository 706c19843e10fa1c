// Seeded fuzz loops for the wire decoders: the request parser, and the
// shard-reply decoders a router runs on every response (ParseResponseHead,
// ParseIdsLine, ParseIdsChunk, ParseQueryStatsJson, ParseShardHealth).
// Inputs are random bytes, token soup, and mutations of valid messages, fed
// at random split points. Fixed seeds keep every failure reproducible; the
// ASan/UBSan build runs these too, catching memory errors and undefined
// behaviour the assertions cannot see. Valid messages must round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "query/stats.h"
#include "service/protocol.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace sgq {
namespace {

using Status = RequestParser::Status;

constexpr int kIterations = 20000;

// Protocol words and awkward values, for token soup and mutations.
const char* const kTokens[] = {
    "QUERY", "ADD",   "GRAPH", "REMOVE", "STATS", "RELOAD", "CACHE",
    "CLEAR", "SHUTDOWN", "LIMIT", "IDS", "STREAM", "ID", "@", "@q.txt",
    "0",     "1",     "7",     "-1",     "0.5",   "1e300",  "inf",
    "nan",   "4294967295", "4294967296", "18446744073709551616", "\n",
    "\r\n",  " ",     "  ",    "\r",     "OK",    "TIMEOUT", "{", "}",
    ":",     ",",     "\"shards_ok\":", "\"shards_total\":"};

std::string RandomToken(Rng* rng) {
  return kTokens[rng->NextBounded(std::size(kTokens))];
}

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string out(rng->NextBounded(max_len + 1), '\0');
  for (char& c : out) {
    // A newline now and then, so the parser gets past command lines.
    c = rng->NextBool(0.05) ? '\n' : static_cast<char>(rng->Next());
  }
  return out;
}

// One to four edits: overwrite a byte, insert bytes or a token, delete or
// duplicate a range.
std::string Mutate(std::string s, Rng* rng) {
  const int edits = 1 + static_cast<int>(rng->NextBounded(4));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = rng->NextBounded(s.size() + 1);
    switch (rng->NextBounded(5)) {
      case 0:
        if (pos < s.size()) s[pos] = static_cast<char>(rng->Next());
        break;
      case 1:
        s.insert(pos, RandomBytes(rng, 4));
        break;
      case 2:
        s.insert(pos, RandomToken(rng));
        break;
      case 3:
        s.erase(pos, rng->NextBounded(8));
        break;
      default:
        s.insert(pos, s.substr(pos, rng->NextBounded(16)));
        break;
    }
  }
  return s;
}

// What every decoded request must satisfy, whatever the input.
void CheckRequest(const Request& r) {
  EXPECT_LE(r.graph_text.size(), kDefaultMaxPayloadBytes);
  EXPECT_GE(r.timeout_seconds, 0);
  EXPECT_TRUE(r.graph_text.empty() || r.file_ref.empty());
  if (r.verb == Request::Verb::kQuery && r.timeout_seconds >= 1) {
    // The service turns the timeout into a deadline; a limit of a second
    // or more must not start out expired.
    EXPECT_FALSE(Deadline::AfterSeconds(r.timeout_seconds).Expired())
        << r.timeout_seconds;
  }
}

// Feeds `bytes` in random-sized pieces, draining after each. Returns the
// decoded requests; *failed reports the parser's terminal error state.
std::vector<Request> FeedInPieces(const std::string& bytes, Rng* rng,
                                  bool* failed) {
  RequestParser parser;
  std::vector<Request> out;
  *failed = false;
  size_t fed = 0;
  while (fed < bytes.size() && !*failed) {
    const size_t piece = 1 + rng->NextBounded(std::min<size_t>(
                                 bytes.size() - fed, 64));
    parser.Feed(std::string_view(bytes).substr(fed, piece));
    fed += piece;
    Request request;
    std::string error;
    for (;;) {
      const Status status = parser.Next(&request, &error);
      if (status == Status::kNeedMore) break;
      if (status == Status::kError) {
        EXPECT_FALSE(error.empty());
        // Errors are terminal.
        EXPECT_EQ(parser.Next(&request, &error), Status::kError);
        *failed = true;
        break;
      }
      CheckRequest(request);
      out.push_back(std::move(request));
    }
  }
  return out;
}

// A random valid request and its wire form.
struct Sample {
  std::string wire;
  Request request;
};

Sample RandomValidRequest(Rng* rng) {
  Sample s;
  Request& r = s.request;
  auto payload = [&] {
    s.wire += " ";
    const std::string bytes = RandomBytes(rng, 40);
    r.graph_text = bytes;
    return bytes;
  };
  switch (rng->NextBounded(7)) {
    case 0:
      s.wire = "STATS\n";
      r.verb = Request::Verb::kStats;
      break;
    case 1:
      s.wire = "SHUTDOWN\n";
      r.verb = Request::Verb::kShutdown;
      break;
    case 2:
      s.wire = "CACHE CLEAR\n";
      r.verb = Request::Verb::kCacheClear;
      break;
    case 3:
      r.verb = Request::Verb::kReload;
      s.wire = "RELOAD";
      if (rng->NextBool(0.5)) {
        r.file_ref = "db" + std::to_string(rng->NextBounded(100)) + ".txt";
        s.wire += " @" + r.file_ref;
      }
      s.wire += "\n";
      break;
    case 4: {
      r.verb = Request::Verb::kAddGraph;
      s.wire = "ADD GRAPH";
      const std::string bytes = payload();
      s.wire += std::to_string(bytes.size());
      if (rng->NextBool(0.5)) {
        r.graph_id = static_cast<GraphId>(rng->Next());
        r.has_graph_id = true;
        s.wire += " ID " + std::to_string(r.graph_id);
      }
      s.wire += "\n" + bytes;
      break;
    }
    case 5:
      r.verb = Request::Verb::kRemoveGraph;
      r.graph_id = static_cast<GraphId>(rng->Next());
      r.has_graph_id = true;
      s.wire = "REMOVE GRAPH " + std::to_string(r.graph_id) + "\n";
      break;
    default: {
      r.verb = Request::Verb::kQuery;
      s.wire = "QUERY";
      std::string bytes;
      if (rng->NextBool(0.3)) {
        r.file_ref = "q" + std::to_string(rng->NextBounded(100)) + ".txt";
        s.wire += " @" + r.file_ref;
      } else {
        bytes = payload();
        s.wire += std::to_string(bytes.size());
      }
      if (rng->NextBool(0.5)) {
        const char* kTimeouts[] = {"0", "0.25", "30", "600", "1e300", "inf"};
        const std::string t = kTimeouts[rng->NextBounded(6)];
        r.timeout_seconds = std::strtod(t.c_str(), nullptr);
        s.wire += " " + t;
      }
      // LIMIT / IDS / STREAM, each at most once, in a random order.
      std::vector<int> options = {0, 1, 2};
      for (size_t i = options.size(); i > 1; --i) {
        std::swap(options[i - 1], options[rng->NextBounded(i)]);
      }
      for (const int option : options) {
        if (!rng->NextBool(0.5)) continue;
        if (option == 0) {
          r.limit = 1 + rng->NextBounded(1000);
          s.wire += " LIMIT " + std::to_string(r.limit);
        } else if (option == 1) {
          r.want_ids = true;
          s.wire += " IDS";
        } else {
          r.stream = true;
          s.wire += " STREAM";
        }
      }
      s.wire += "\n" + bytes;
      break;
    }
  }
  return s;
}

void ExpectSameRequest(const Request& got, const Request& want) {
  EXPECT_EQ(got.verb, want.verb);
  EXPECT_EQ(got.graph_text, want.graph_text);
  EXPECT_EQ(got.file_ref, want.file_ref);
  EXPECT_EQ(got.timeout_seconds, want.timeout_seconds);
  EXPECT_EQ(got.limit, want.limit);
  EXPECT_EQ(got.want_ids, want.want_ids);
  EXPECT_EQ(got.stream, want.stream);
  EXPECT_EQ(got.graph_id, want.graph_id);
  EXPECT_EQ(got.has_graph_id, want.has_graph_id);
}

TEST(RequestParserFuzzTest, ValidRequestsRoundTripAtAnySplit) {
  Rng rng(1401);
  for (int it = 0; it < kIterations / 10; ++it) {
    std::vector<Sample> samples(1 + rng.NextBounded(10));
    std::string wire;
    for (Sample& s : samples) {
      if (rng.NextBool(0.2)) wire += rng.NextBool(0.5) ? "\n" : "\r\n";
      s = RandomValidRequest(&rng);
      wire += s.wire;
    }
    bool failed = false;
    const std::vector<Request> got = FeedInPieces(wire, &rng, &failed);
    ASSERT_FALSE(failed) << "iteration " << it;
    ASSERT_EQ(got.size(), samples.size()) << "iteration " << it;
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "iteration " << it << " request "
                                        << i);
      ExpectSameRequest(got[i], samples[i].request);
    }
  }
}

TEST(RequestParserFuzzTest, MutatedRequestsNeverCrash) {
  Rng rng(1402);
  for (int it = 0; it < kIterations; ++it) {
    std::string wire;
    for (int i = 0, n = 1 + static_cast<int>(rng.NextBounded(4)); i < n;
         ++i) {
      wire += RandomValidRequest(&rng).wire;
    }
    bool failed = false;
    FeedInPieces(Mutate(wire, &rng), &rng, &failed);
  }
}

TEST(RequestParserFuzzTest, RandomBytesAndTokenSoupNeverCrash) {
  Rng rng(1403);
  for (int it = 0; it < kIterations; ++it) {
    std::string input;
    if (it % 2 == 0) {
      input = RandomBytes(&rng, 512);
    } else {
      for (int i = 0, n = static_cast<int>(rng.NextBounded(40)); i < n; ++i) {
        input += RandomToken(&rng);
        input += rng.NextBool(0.7) ? " " : "";
      }
    }
    bool failed = false;
    FeedInPieces(input, &rng, &failed);
  }
}

// A random query result, with doubles exact in the %.6g json encoding.
QueryResult RandomResult(Rng* rng) {
  QueryResult r;
  GraphId id = 0;
  for (uint64_t i = 0, n = rng->NextBounded(20); i < n; ++i) {
    id += static_cast<GraphId>(1 + rng->NextBounded(1u << 28));
    r.answers.push_back(id);
  }
  QueryStats& s = r.stats;
  s.filtering_ms = static_cast<double>(rng->NextBounded(40000)) / 4;
  s.verification_ms = static_cast<double>(rng->NextBounded(40000)) / 4;
  s.num_candidates = rng->Next() >> rng->NextBounded(64);
  s.num_answers = r.answers.size();
  s.si_tests = rng->Next() >> rng->NextBounded(64);
  s.timed_out = rng->NextBool(0.3);
  s.aux_memory_bytes = static_cast<size_t>(rng->NextBounded(1u << 30));
  s.ws_filter_hits = rng->NextBounded(100000);
  s.ws_filter_misses = rng->NextBounded(100000);
  s.intersect_calls = rng->Next();
  s.intersect_merge = rng->NextBounded(1000);
  s.intersect_gallop = rng->NextBounded(1000);
  s.intersect_simd = rng->NextBounded(1000);
  s.local_candidates = rng->Next() >> 1;
  return r;
}

// Runs every shard-reply decoder on one (possibly garbage) response; the
// decoders may reject, but what they accept must be self-consistent.
void DecodeReply(std::string_view head_line, std::string_view ids_line) {
  const ResponseHead head = ParseResponseHead(head_line);
  QueryStats stats;
  if (ParseQueryStatsJson(head.body, &stats)) {
    EXPECT_EQ(head.body.front(), '{');
  }
  ShardHealth health;
  if (ParseShardHealth(head.body, &health)) {
    EXPECT_LE(health.ok, health.total);
  }
  std::vector<GraphId> ids;
  if (ParseIdsLine(ids_line, head.num_answers, &ids)) {
    EXPECT_EQ(ids.size(), head.num_answers);
  }
  ids.clear();
  ParseIdsChunk(ids_line, &ids);
}

TEST(ShardReplyFuzzTest, ValidRepliesRoundTrip) {
  Rng rng(1404);
  for (int it = 0; it < kIterations; ++it) {
    SCOPED_TRACE(::testing::Message() << "iteration " << it);
    const QueryResult result = RandomResult(&rng);
    ShardHealth shards;
    shards.total = static_cast<uint32_t>(1 + rng.NextBounded(UINT32_MAX));
    shards.ok = static_cast<uint32_t>(rng.NextBounded(shards.total + 1ull));
    const bool with_shards = rng.NextBool(0.5);
    const std::string reply = FormatQueryResponse(
        result, with_shards ? &shards : nullptr, /*with_ids=*/true);
    const size_t newline = reply.find('\n');
    ASSERT_NE(newline, std::string::npos);
    const std::string head_line = reply.substr(0, newline);
    const std::string ids_line =
        reply.substr(newline + 1, reply.size() - newline - 2);

    const ResponseHead head = ParseResponseHead(head_line);
    EXPECT_EQ(head.kind, result.stats.timed_out ? ResponseHead::Kind::kTimeout
                                                : ResponseHead::Kind::kOk);
    ASSERT_TRUE(head.has_count);
    EXPECT_EQ(head.num_answers, result.answers.size());
    QueryStats stats;
    ASSERT_TRUE(ParseQueryStatsJson(head.body, &stats));
    EXPECT_EQ(ToJson(stats), ToJson(result.stats));
    ShardHealth health;
    EXPECT_EQ(ParseShardHealth(head.body, &health), with_shards);
    if (with_shards) {
      EXPECT_EQ(health.ok, shards.ok);
      EXPECT_EQ(health.total, shards.total);
    }
    std::vector<GraphId> ids;
    ASSERT_TRUE(ParseIdsLine(ids_line, head.num_answers, &ids));
    EXPECT_EQ(ids, result.answers);
    // Streamed chunks concatenate back to the same ids.
    std::vector<GraphId> streamed;
    const size_t split = rng.NextBounded(result.answers.size() + 1);
    const std::span<const GraphId> all(result.answers);
    for (const std::span<const GraphId> part :
         {all.subspan(0, split), all.subspan(split)}) {
      std::string chunk = FormatIdsLine(part);
      chunk.pop_back();  // '\n'
      ASSERT_TRUE(ParseIdsChunk(chunk, &streamed));
    }
    EXPECT_EQ(streamed, result.answers);
  }
}

TEST(ShardReplyFuzzTest, MutatedRepliesNeverCrash) {
  Rng rng(1405);
  for (int it = 0; it < kIterations; ++it) {
    const QueryResult result = RandomResult(&rng);
    ShardHealth shards;
    shards.total = static_cast<uint32_t>(1 + rng.NextBounded(64));
    shards.ok = static_cast<uint32_t>(rng.NextBounded(shards.total + 1));
    const std::string reply =
        FormatQueryResponse(result, &shards, /*with_ids=*/true);
    const size_t newline = reply.find('\n');
    std::string head_line = reply.substr(0, newline);
    std::string ids_line = reply.substr(newline + 1);
    ids_line.pop_back();
    if (rng.NextBool(0.7)) head_line = Mutate(head_line, &rng);
    if (rng.NextBool(0.7)) ids_line = Mutate(ids_line, &rng);
    DecodeReply(head_line, ids_line);
    DecodeReply(RandomBytes(&rng, 96), RandomBytes(&rng, 96));
  }
}

// Regressions for what the loops above turned up.

TEST(WireDecoderRegressionTest, ShardHealthRejectsImpossibleCounts) {
  ShardHealth health{.ok = 5, .total = 5};
  ASSERT_TRUE(ParseShardHealth(R"({"shards_ok":2,"shards_total":3})", &health));
  EXPECT_EQ(health.ok, 2u);
  EXPECT_EQ(health.total, 3u);
  // More shards answered than exist; totals beyond uint32 once wrapped to
  // small counts that then looked healthy.
  EXPECT_FALSE(ParseShardHealth(R"({"shards_ok":4,"shards_total":3})", &health));
  EXPECT_FALSE(ParseShardHealth(
      R"({"shards_ok":1,"shards_total":4294967297})", &health));
  EXPECT_FALSE(ParseShardHealth(
      R"({"shards_ok":4294967296,"shards_total":4294967296})", &health));
  EXPECT_EQ(health.ok, 2u);  // untouched on failure
  EXPECT_EQ(health.total, 3u);
}

TEST(WireDecoderRegressionTest, GraphIdsBeyondRangeAreRejected) {
  // 2^32 used to wrap to graph 0: REMOVE GRAPH 4294967296 removed graph 0.
  std::vector<GraphId> ids;
  EXPECT_FALSE(ParseIdsLine("IDS 4294967296", 1, &ids));
  EXPECT_FALSE(ParseIdsChunk("IDS 1 4294967296", &ids));
  EXPECT_TRUE(ParseIdsLine("IDS 4294967295", 1, &ids));
  EXPECT_EQ(ids, (std::vector<GraphId>{4294967295u}));
  for (const char* wire : {"REMOVE GRAPH 4294967296\n",
                           "ADD GRAPH 1 ID 4294967296\nx"}) {
    SCOPED_TRACE(wire);
    RequestParser parser;
    parser.Feed(wire);
    Request request;
    std::string error;
    EXPECT_EQ(parser.Next(&request, &error), Status::kError);
  }
}

TEST(WireDecoderRegressionTest, CountsUpToUint64MaxParse) {
  // The overflow guard used to reject the last few values below 2^64.
  uint64_t count = 0;
  ASSERT_TRUE(
      ParseReloadedCount("OK reloaded 18446744073709551615 graphs", &count));
  EXPECT_EQ(count, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(
      ParseReloadedCount("OK reloaded 18446744073709551616 graphs", &count));
}

TEST(WireDecoderRegressionTest, HugeQueryTimeoutIsNoLimit) {
  // "QUERY ... 1e300" parsed fine, but the deadline conversion overflowed
  // and the query started out expired.
  for (const char* wire : {"QUERY @q.txt 1e300\n", "QUERY @q.txt inf\n"}) {
    SCOPED_TRACE(wire);
    RequestParser parser;
    parser.Feed(wire);
    Request request;
    std::string error;
    ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
    const Deadline deadline = Deadline::AfterSeconds(request.timeout_seconds);
    EXPECT_FALSE(deadline.Expired());
    EXPECT_TRUE(deadline.IsInfinite());
  }
  EXPECT_TRUE(Deadline::AfterSeconds(-1e300).Expired());
  EXPECT_FALSE(Deadline::AfterSeconds(3600).IsInfinite());
}

}  // namespace
}  // namespace sgq
