// Unit tests for the wire-protocol codec: request grammar, incremental
// (byte-at-a-time) feeding, length-prefixed payload handling, and the
// error paths a hostile or broken client can hit — malformed verbs,
// truncated payloads, oversized requests, over-long command lines.
#include "service/protocol.h"

#include <gtest/gtest.h>

#include "query/stats.h"

namespace sgq {
namespace {

using Status = RequestParser::Status;

TEST(ProtocolTest, ParsesSimpleVerbs) {
  RequestParser parser;
  parser.Feed("STATS\nSHUTDOWN\nRELOAD\nRELOAD @/tmp/db.txt\nCACHE CLEAR\n");
  Request request;
  std::string error;

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.verb, Request::Verb::kStats);
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.verb, Request::Verb::kShutdown);
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.verb, Request::Verb::kReload);
  EXPECT_TRUE(request.file_ref.empty());
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.verb, Request::Verb::kReload);
  EXPECT_EQ(request.file_ref, "/tmp/db.txt");
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.verb, Request::Verb::kCacheClear);
  EXPECT_EQ(parser.Next(&request, &error), Status::kNeedMore);
  EXPECT_FALSE(parser.HasPartial());
}

TEST(ProtocolTest, ParsesInlineQueryWithPayload) {
  const std::string payload = "t # 0\nv 0 1\nv 1 2\ne 0 1\n";
  RequestParser parser;
  parser.Feed("QUERY " + std::to_string(payload.size()) + " 2.5\n" + payload);
  Request request;
  std::string error;
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_EQ(request.verb, Request::Verb::kQuery);
  EXPECT_EQ(request.graph_text, payload);
  EXPECT_DOUBLE_EQ(request.timeout_seconds, 2.5);
  EXPECT_TRUE(request.file_ref.empty());
}

TEST(ProtocolTest, PayloadBytesAreNotInterpretedAsCommands) {
  // A payload that looks like protocol must be passed through verbatim.
  const std::string payload = "SHUTDOWN\nSTATS\n";
  RequestParser parser;
  parser.Feed("QUERY " + std::to_string(payload.size()) + "\n" + payload +
              "STATS\n");
  Request request;
  std::string error;
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.verb, Request::Verb::kQuery);
  EXPECT_EQ(request.graph_text, payload);
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.verb, Request::Verb::kStats);
}

TEST(ProtocolTest, ByteAtATimeFeeding) {
  const std::string payload = "t # 0\nv 0 3\n";
  const std::string wire =
      "QUERY @/data/q7.txt 0.25\r\nQUERY " +
      std::to_string(payload.size()) + "\n" + payload + "STATS\n";
  RequestParser parser;
  std::vector<Request> requests;
  std::string error;
  for (const char c : wire) {
    parser.Feed(std::string_view(&c, 1));
    Request request;
    while (parser.Next(&request, &error) == Status::kReady) {
      requests.push_back(request);
    }
  }
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].verb, Request::Verb::kQuery);
  EXPECT_EQ(requests[0].file_ref, "/data/q7.txt");
  EXPECT_DOUBLE_EQ(requests[0].timeout_seconds, 0.25);
  EXPECT_EQ(requests[1].graph_text, payload);
  EXPECT_EQ(requests[2].verb, Request::Verb::kStats);
}

TEST(ProtocolTest, BlankLinesAreIgnored) {
  RequestParser parser;
  parser.Feed("\n\r\n  \nSTATS\n");
  Request request;
  std::string error;
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.verb, Request::Verb::kStats);
}

TEST(ProtocolTest, MalformedVerbIsAnError) {
  RequestParser parser;
  parser.Feed("FROBNICATE 12\n");
  Request request;
  std::string error;
  EXPECT_EQ(parser.Next(&request, &error), Status::kError);
  EXPECT_NE(error.find("unknown verb"), std::string::npos);
  // The parser is dead after an error: resynchronization is impossible.
  parser.Feed("STATS\n");
  EXPECT_EQ(parser.Next(&request, &error), Status::kError);
}

TEST(ProtocolTest, BadArgumentsAreErrors) {
  const char* bad[] = {
      "QUERY\n",              // missing length
      "QUERY twelve\n",       // non-numeric length
      "QUERY -5\n",           // negative length
      "QUERY 5 1.5 extra\n",  // too many tokens
      "QUERY 5 -2\n",         // negative timeout
      "QUERY 5 abc\n",        // non-numeric timeout
      "QUERY @\n",            // empty path
      "STATS now\n",          // STATS takes no arguments
      "SHUTDOWN 1\n",         // SHUTDOWN takes no arguments
      "RELOAD db.txt\n",      // RELOAD path must be @-prefixed
      "RELOAD @a @b\n",       // too many tokens
      "CACHE\n",              // missing subcommand
      "CACHE FLUSH\n",        // unknown subcommand
      "CACHE CLEAR extra\n",  // too many tokens
      "CACHE clear\n",        // subcommands are case-sensitive
  };
  for (const char* line : bad) {
    SCOPED_TRACE(line);
    RequestParser parser;
    parser.Feed(line);
    Request request;
    std::string error;
    EXPECT_EQ(parser.Next(&request, &error), Status::kError);
    EXPECT_FALSE(error.empty());
  }
}

TEST(ProtocolTest, TruncatedPayloadReportsNeedMoreAndPartial) {
  RequestParser parser;
  parser.Feed("QUERY 100\nonly a few bytes");
  Request request;
  std::string error;
  EXPECT_EQ(parser.Next(&request, &error), Status::kNeedMore);
  EXPECT_TRUE(parser.HasPartial());  // disconnect now = truncated request
  // The remaining bytes complete the request.
  parser.Feed(std::string(100 - 16, 'x'));
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady);
  EXPECT_EQ(request.graph_text.size(), 100u);
}

TEST(ProtocolTest, OversizedPayloadIsRejectedUpFront) {
  RequestParser parser(/*max_payload_bytes=*/1024);
  parser.Feed("QUERY 1025\n");
  Request request;
  std::string error;
  EXPECT_EQ(parser.Next(&request, &error), Status::kError);
  EXPECT_NE(error.find("exceeds limit"), std::string::npos);

  RequestParser ok_parser(/*max_payload_bytes=*/1024);
  ok_parser.Feed("QUERY 1024\n" + std::string(1024, 'v'));
  EXPECT_EQ(ok_parser.Next(&request, &error), Status::kReady);
}

TEST(ProtocolTest, HugeLengthTokenDoesNotOverflow) {
  RequestParser parser;
  parser.Feed("QUERY 99999999999999999999999999\n");
  Request request;
  std::string error;
  EXPECT_EQ(parser.Next(&request, &error), Status::kError);
}

TEST(ProtocolTest, UnterminatedCommandLineIsBounded) {
  RequestParser parser;
  parser.Feed(std::string(kMaxCommandLineBytes + 1, 'A'));  // no newline
  Request request;
  std::string error;
  EXPECT_EQ(parser.Next(&request, &error), Status::kError);
  EXPECT_NE(error.find("command line exceeds"), std::string::npos);
}

TEST(ProtocolTest, QueryResponseFormatting) {
  QueryResult result;
  result.answers = {3, 7, 9};
  result.stats.num_answers = 3;
  result.stats.num_candidates = 5;
  const std::string ok = FormatQueryResponse(result);
  EXPECT_EQ(ok.rfind("OK 3 {", 0), 0u) << ok;
  EXPECT_EQ(ok.back(), '\n');
  EXPECT_NE(ok.find("\"num_candidates\":5"), std::string::npos);

  result.stats.timed_out = true;
  const std::string timeout = FormatQueryResponse(result);
  EXPECT_EQ(timeout.rfind("TIMEOUT 3 {", 0), 0u) << timeout;
}

TEST(ProtocolTest, ErrorResponsesAreSingleLine) {
  EXPECT_EQ(FormatOverloadedResponse(), "OVERLOADED\n");
  EXPECT_EQ(FormatOverloadedResponse("shutting-down"),
            "OVERLOADED shutting-down\n");
  EXPECT_EQ(FormatBadRequestResponse("bad\nthing"),
            "BAD_REQUEST bad thing\n");
}

// --- LIMIT / IDS grammar (the router's partial-result framing) ---

TEST(ProtocolTest, ParsesLimitAndIdsOptions) {
  RequestParser parser;
  parser.Feed(
      "QUERY 2 1.5 LIMIT 10 IDS\nxx"
      "QUERY 2 IDS LIMIT 3\nxx"
      "QUERY 2 LIMIT 7\nxx"
      "QUERY 2 IDS\nxx"
      "QUERY @/tmp/q.txt 0.5 LIMIT 2 IDS\n");
  Request request;
  std::string error;

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_DOUBLE_EQ(request.timeout_seconds, 1.5);
  EXPECT_EQ(request.limit, 10u);
  EXPECT_TRUE(request.want_ids);

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_DOUBLE_EQ(request.timeout_seconds, 0);  // options in either order
  EXPECT_EQ(request.limit, 3u);
  EXPECT_TRUE(request.want_ids);

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_EQ(request.limit, 7u);
  EXPECT_FALSE(request.want_ids);

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_EQ(request.limit, 0u);
  EXPECT_TRUE(request.want_ids);

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_EQ(request.file_ref, "/tmp/q.txt");
  EXPECT_DOUBLE_EQ(request.timeout_seconds, 0.5);
  EXPECT_EQ(request.limit, 2u);
  EXPECT_TRUE(request.want_ids);
}

TEST(ProtocolTest, LimitIdsGrammarErrors) {
  const char* bad[] = {
      "QUERY 5 LIMIT\n",            // missing count
      "QUERY 5 LIMIT 0\n",          // k must be >= 1
      "QUERY 5 LIMIT abc\n",        // non-numeric count
      "QUERY 5 LIMIT 2 LIMIT 3\n",  // duplicate LIMIT
      "QUERY 5 IDS IDS\n",          // duplicate IDS
      "QUERY 5 IDS 1.5\n",          // bare timeout must come first
      "QUERY 5 LIMIT 2 bogus\n",    // unknown option
  };
  for (const char* line : bad) {
    SCOPED_TRACE(line);
    RequestParser parser;
    parser.Feed(line);
    Request request;
    std::string error;
    EXPECT_EQ(parser.Next(&request, &error), Status::kError);
    EXPECT_FALSE(error.empty());
  }
}

TEST(ProtocolTest, IdsLineFormatting) {
  EXPECT_EQ(FormatIdsLine({}), "IDS\n");
  const GraphId ids[] = {0, 12, 345};
  EXPECT_EQ(FormatIdsLine(ids), "IDS 0 12 345\n");
}

TEST(ProtocolTest, QueryResponseWithShardsAndIds) {
  QueryResult result;
  result.answers = {4, 8};
  result.stats.num_answers = 2;
  const ShardHealth health{1, 2};
  const std::string response = FormatQueryResponse(result, &health, true);
  // One response line + one IDS line.
  const size_t newline = response.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string head = response.substr(0, newline);
  EXPECT_EQ(head.rfind("OK 2 {", 0), 0u) << head;
  EXPECT_NE(head.find("\"shards_ok\":1"), std::string::npos) << head;
  EXPECT_NE(head.find("\"shards_total\":2"), std::string::npos) << head;
  EXPECT_EQ(response.substr(newline + 1), "IDS 4 8\n");

  // The health fields must round-trip through the stats json.
  const ResponseHead parsed = ParseResponseHead(head);
  ShardHealth parsed_health;
  ASSERT_TRUE(ParseShardHealth(parsed.body, &parsed_health));
  EXPECT_EQ(parsed_health.ok, 1u);
  EXPECT_EQ(parsed_health.total, 2u);
  // A plain server's stats json has no shard fields.
  EXPECT_FALSE(
      ParseShardHealth(ToJson(QueryStats{}), &parsed_health));
}

TEST(ProtocolTest, ApplyAnswerLimitTruncates) {
  QueryResult result;
  result.answers = {1, 2, 3, 4, 5};
  result.stats.num_answers = 5;
  ApplyAnswerLimit(&result, 0);  // 0 = unlimited
  EXPECT_EQ(result.answers.size(), 5u);
  ApplyAnswerLimit(&result, 9);  // larger than the set
  EXPECT_EQ(result.answers.size(), 5u);
  ApplyAnswerLimit(&result, 2);
  EXPECT_EQ(result.answers, (std::vector<GraphId>{1, 2}));
  EXPECT_EQ(result.stats.num_answers, 2u);
}

TEST(ProtocolTest, ParseResponseHeadRecognizesEveryOutcome) {
  ResponseHead head = ParseResponseHead("OK 3 {\"num_answers\":3}");
  EXPECT_EQ(head.kind, ResponseHead::Kind::kOk);
  EXPECT_TRUE(head.has_count);
  EXPECT_EQ(head.num_answers, 3u);
  EXPECT_EQ(head.body, "{\"num_answers\":3}");

  head = ParseResponseHead("TIMEOUT 0 {}");
  EXPECT_EQ(head.kind, ResponseHead::Kind::kTimeout);
  EXPECT_TRUE(head.has_count);
  EXPECT_EQ(head.num_answers, 0u);

  head = ParseResponseHead("OK {\"received\":1}");  // STATS reply
  EXPECT_EQ(head.kind, ResponseHead::Kind::kOk);
  EXPECT_FALSE(head.has_count);
  EXPECT_EQ(head.body, "{\"received\":1}");

  head = ParseResponseHead("OK reloaded 30 graphs");
  EXPECT_EQ(head.kind, ResponseHead::Kind::kOk);
  EXPECT_FALSE(head.has_count);

  head = ParseResponseHead("OVERLOADED queue full");
  EXPECT_EQ(head.kind, ResponseHead::Kind::kOverloaded);
  EXPECT_EQ(head.body, "queue full");

  // An old server rejects the extended grammar with BAD_REQUEST and closes;
  // the router must see a clean, classifiable outcome, not a desync.
  head = ParseResponseHead("BAD_REQUEST too many QUERY arguments");
  EXPECT_EQ(head.kind, ResponseHead::Kind::kBadRequest);
  EXPECT_EQ(head.body, "too many QUERY arguments");

  EXPECT_EQ(ParseResponseHead("BYE").kind, ResponseHead::Kind::kBye);
  EXPECT_EQ(ParseResponseHead("BYE\r").kind, ResponseHead::Kind::kBye);
  EXPECT_EQ(ParseResponseHead("").kind, ResponseHead::Kind::kMalformed);
  EXPECT_EQ(ParseResponseHead("GARBAGE 1").kind,
            ResponseHead::Kind::kMalformed);
  EXPECT_EQ(ParseResponseHead("OK x {}").kind, ResponseHead::Kind::kOk);
  EXPECT_FALSE(ParseResponseHead("OK x {}").has_count);
}

TEST(ProtocolTest, ParseIdsLineChecksCount) {
  std::vector<GraphId> ids;
  EXPECT_TRUE(ParseIdsLine("IDS 1 5 9", 3, &ids));
  EXPECT_EQ(ids, (std::vector<GraphId>{1, 5, 9}));
  EXPECT_TRUE(ParseIdsLine("IDS", 0, &ids));
  EXPECT_TRUE(ids.empty());
  EXPECT_FALSE(ParseIdsLine("IDS 1 5", 3, &ids));     // too few
  EXPECT_FALSE(ParseIdsLine("IDS 1 5 9 11", 3, &ids));  // too many
  EXPECT_FALSE(ParseIdsLine("IDS 1 x 9", 3, &ids));   // non-numeric
  EXPECT_FALSE(ParseIdsLine("ANSWERS 1 5 9", 3, &ids));  // wrong tag
}

// --- STREAM grammar and incremental framing ---

TEST(ProtocolTest, ParsesStreamOption) {
  RequestParser parser;
  parser.Feed(
      "QUERY 2 STREAM\nxx"
      "QUERY 2 1.5 LIMIT 3 STREAM\nxx"
      "QUERY 2 STREAM IDS\nxx"
      "QUERY @/tmp/q.txt STREAM\n"
      "QUERY 2\nxx");
  Request request;
  std::string error;

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_TRUE(request.stream);
  EXPECT_EQ(request.limit, 0u);

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_TRUE(request.stream);
  EXPECT_EQ(request.limit, 3u);
  EXPECT_DOUBLE_EQ(request.timeout_seconds, 1.5);

  // STREAM composes with IDS (the batch trailer is suppressed at reply
  // time, but the grammar accepts both).
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_TRUE(request.stream);
  EXPECT_TRUE(request.want_ids);

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_TRUE(request.stream);
  EXPECT_EQ(request.file_ref, "/tmp/q.txt");

  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_FALSE(request.stream);  // default stays off
}

TEST(ProtocolTest, StreamGrammarErrors) {
  RequestParser parser;
  parser.Feed("QUERY 5 STREAM STREAM\n");
  Request request;
  std::string error;
  EXPECT_EQ(parser.Next(&request, &error), Status::kError);
  EXPECT_FALSE(error.empty());
}

TEST(ProtocolTest, OverloadedResponseCarriesRetryAfterHint) {
  EXPECT_EQ(FormatOverloadedResponse("", 250),
            "OVERLOADED retry_after_ms=250\n");
  EXPECT_EQ(FormatOverloadedResponse("queue full", 250),
            "OVERLOADED retry_after_ms=250 queue full\n");
  // A zero hint (no completed-query EWMA yet) keeps the legacy shape.
  EXPECT_EQ(FormatOverloadedResponse("queue full", 0),
            "OVERLOADED queue full\n");
  EXPECT_EQ(FormatOverloadedResponse("", 0), "OVERLOADED\n");
}

TEST(ProtocolTest, ParseRetryAfterMs) {
  uint64_t ms = 0;
  const ResponseHead head =
      ParseResponseHead("OVERLOADED retry_after_ms=120 queue full");
  ASSERT_TRUE(ParseRetryAfterMs(head.body, &ms));
  EXPECT_EQ(ms, 120u);
  EXPECT_FALSE(ParseRetryAfterMs("queue full", &ms));
  EXPECT_FALSE(ParseRetryAfterMs("", &ms));
  EXPECT_FALSE(ParseRetryAfterMs("retry_after_ms=abc", &ms));
}

TEST(ProtocolTest, ParseIdsChunkAppends) {
  std::vector<GraphId> ids;
  EXPECT_TRUE(ParseIdsChunk("IDS 1 5", &ids));
  EXPECT_TRUE(ParseIdsChunk("IDS 9", &ids));
  EXPECT_EQ(ids, (std::vector<GraphId>{1, 5, 9}));  // appends, no reset
  EXPECT_TRUE(ParseIdsChunk("IDS", &ids));  // empty chunk is legal
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_TRUE(ParseIdsChunk("IDS 11\r", &ids));  // CRLF tolerated
  EXPECT_EQ(ids.back(), 11u);
  EXPECT_FALSE(ParseIdsChunk("IDS 1 x", &ids));
  EXPECT_FALSE(ParseIdsChunk("ANSWERS 1", &ids));
  EXPECT_FALSE(ParseIdsChunk("", &ids));
}

TEST(ProtocolTest, QueryStatsJsonRoundTrips) {
  QueryStats stats;
  stats.filtering_ms = 1.25;
  stats.verification_ms = 0.5;
  stats.num_candidates = 42;
  stats.num_answers = 7;
  stats.si_tests = 40;
  stats.timed_out = true;
  stats.aux_memory_bytes = 4096;
  stats.ws_filter_hits = 3;
  stats.ws_filter_misses = 2;
  stats.intersect_calls = 11;
  stats.intersect_merge = 5;
  stats.intersect_gallop = 4;
  stats.intersect_simd = 2;
  stats.local_candidates = 99;

  QueryStats parsed;
  ASSERT_TRUE(ParseQueryStatsJson(ToJson(stats), &parsed));
  EXPECT_DOUBLE_EQ(parsed.filtering_ms, stats.filtering_ms);
  EXPECT_DOUBLE_EQ(parsed.verification_ms, stats.verification_ms);
  EXPECT_EQ(parsed.num_candidates, stats.num_candidates);
  EXPECT_EQ(parsed.num_answers, stats.num_answers);
  EXPECT_EQ(parsed.si_tests, stats.si_tests);
  EXPECT_EQ(parsed.timed_out, stats.timed_out);
  EXPECT_EQ(parsed.aux_memory_bytes, stats.aux_memory_bytes);
  EXPECT_EQ(parsed.ws_filter_hits, stats.ws_filter_hits);
  EXPECT_EQ(parsed.ws_filter_misses, stats.ws_filter_misses);
  EXPECT_EQ(parsed.intersect_calls, stats.intersect_calls);
  EXPECT_EQ(parsed.intersect_merge, stats.intersect_merge);
  EXPECT_EQ(parsed.intersect_gallop, stats.intersect_gallop);
  EXPECT_EQ(parsed.intersect_simd, stats.intersect_simd);
  EXPECT_EQ(parsed.local_candidates, stats.local_candidates);

  // Keys the parser does not know (counters an older or newer shard
  // reports) are skipped, not rejected.
  std::string extended = ToJson(stats);
  extended.insert(extended.size() - 1, ",\"retired_counter\":8");
  QueryStats parsed_extended;
  ASSERT_TRUE(ParseQueryStatsJson(extended, &parsed_extended));
  EXPECT_EQ(parsed_extended.local_candidates, stats.local_candidates);

  EXPECT_FALSE(ParseQueryStatsJson("not json", &parsed));
  EXPECT_FALSE(ParseQueryStatsJson("", &parsed));
}

TEST(ProtocolTest, ParsesAddGraphWithInlinePayload) {
  const std::string payload = "t # 0\nv 0 1\nv 1 2\ne 0 1\n";
  RequestParser parser;
  parser.Feed("ADD GRAPH " + std::to_string(payload.size()) + "\n" + payload);
  Request request;
  std::string error;
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_EQ(request.verb, Request::Verb::kAddGraph);
  EXPECT_EQ(request.graph_text, payload);
  EXPECT_FALSE(request.has_graph_id);
}

TEST(ProtocolTest, ParsesAddGraphWithForcedIdAndFileRef) {
  const std::string payload = "t # 0\nv 0 1\n";
  RequestParser parser;
  parser.Feed("ADD GRAPH " + std::to_string(payload.size()) + " ID 42\n" +
              payload + "ADD GRAPH @/tmp/g.txt ID 7\n");
  Request request;
  std::string error;
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_EQ(request.verb, Request::Verb::kAddGraph);
  EXPECT_EQ(request.graph_text, payload);
  ASSERT_TRUE(request.has_graph_id);
  EXPECT_EQ(request.graph_id, 42u);
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_EQ(request.verb, Request::Verb::kAddGraph);
  EXPECT_EQ(request.file_ref, "/tmp/g.txt");
  ASSERT_TRUE(request.has_graph_id);
  EXPECT_EQ(request.graph_id, 7u);
}

TEST(ProtocolTest, ParsesRemoveGraph) {
  RequestParser parser;
  parser.Feed("REMOVE GRAPH 13\n");
  Request request;
  std::string error;
  ASSERT_EQ(parser.Next(&request, &error), Status::kReady) << error;
  EXPECT_EQ(request.verb, Request::Verb::kRemoveGraph);
  EXPECT_EQ(request.graph_id, 13u);
}

TEST(ProtocolTest, MutationGrammarErrors) {
  for (const char* line :
       {"ADD\n", "ADD GRAPH\n", "ADD GRAPH nonsense\n",
        "ADD GRAPH 4 ID\n", "ADD GRAPH 4 ID x\n", "ADD GRAPH 4 LIMIT 2\n",
        "REMOVE\n", "REMOVE GRAPH\n", "REMOVE GRAPH x\n",
        "REMOVE GRAPH 1 2\n"}) {
    RequestParser parser;
    parser.Feed(line);
    Request request;
    std::string error;
    EXPECT_EQ(parser.Next(&request, &error), Status::kError) << line;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ProtocolTest, OversizedAddPayloadIsRejectedUpFront) {
  RequestParser parser(/*max_payload_bytes=*/64);
  parser.Feed("ADD GRAPH 65\n");
  Request request;
  std::string error;
  EXPECT_EQ(parser.Next(&request, &error), Status::kError);
}

TEST(ProtocolTest, MutationResponseRoundTrip) {
  EXPECT_EQ(FormatAddedResponse(42), "OK added 42\n");
  EXPECT_EQ(FormatRemovedResponse(7), "OK removed 7\n");
  GraphId gid = 0;
  ASSERT_TRUE(ParseAddedResponse("OK added 42", &gid));
  EXPECT_EQ(gid, 42u);
  ASSERT_TRUE(ParseRemovedResponse("OK removed 7", &gid));
  EXPECT_EQ(gid, 7u);
  // Cross-talk and malformed lines are refused.
  EXPECT_FALSE(ParseAddedResponse("OK removed 7", &gid));
  EXPECT_FALSE(ParseRemovedResponse("OK added 42", &gid));
  EXPECT_FALSE(ParseAddedResponse("OK added", &gid));
  EXPECT_FALSE(ParseAddedResponse("OK added x", &gid));
  EXPECT_FALSE(ParseAddedResponse("OVERLOADED busy", &gid));
  // An id past the 32-bit GraphId space is refused, not truncated.
  EXPECT_FALSE(ParseAddedResponse("OK added 4294967301", &gid));
}

TEST(ProtocolTest, ParseReloadedCount) {
  uint64_t count = 0;
  ASSERT_TRUE(ParseReloadedCount("OK reloaded 40 graphs", &count));
  EXPECT_EQ(count, 40u);
  // A graph count is not a GraphId: 2^32 still fits the 64-bit count.
  ASSERT_TRUE(ParseReloadedCount("OK reloaded 4294967296 graphs", &count));
  EXPECT_EQ(count, 4294967296u);

  count = 7;
  EXPECT_FALSE(ParseReloadedCount("OK reloaded graphs", &count));
  EXPECT_FALSE(ParseReloadedCount("OK 40 graphs", &count));
  EXPECT_FALSE(ParseReloadedCount("OK reloaded 4x0 graphs", &count));
  EXPECT_FALSE(ParseReloadedCount("OK reloaded -1 graphs", &count));
  EXPECT_FALSE(ParseReloadedCount("OK reloaded 40 graphs extra", &count));
  EXPECT_FALSE(ParseReloadedCount(
      "OK reloaded 1234567890123456789012345 graphs", &count));
  EXPECT_FALSE(ParseReloadedCount("OVERLOADED busy", &count));
  EXPECT_EQ(count, 7u);  // untouched on failure
}

TEST(ProtocolTest, ParseNextGlobalId) {
  GraphId next = 0;
  ASSERT_TRUE(ParseNextGlobalId(
      R"({"received":3,"update":{"adds":2,"next_global_id":42}})", &next));
  EXPECT_EQ(next, 42u);
  ASSERT_TRUE(ParseNextGlobalId(R"({"next_global_id":4294967295})", &next));
  EXPECT_EQ(next, 4294967295u);

  next = 7;
  EXPECT_FALSE(ParseNextGlobalId(R"({"update":{"adds":2}})", &next));
  EXPECT_FALSE(ParseNextGlobalId(R"({"next_global_id":"42"})", &next));
  EXPECT_FALSE(ParseNextGlobalId(R"({"next_global_id":4x2})", &next));
  EXPECT_FALSE(ParseNextGlobalId(R"({"next_global_id":-1})", &next));
  // 2^32 does not fit a GraphId; 25 digits overflow 64 bits. Neither may
  // wrap into a small id the router would then hand out again.
  EXPECT_FALSE(ParseNextGlobalId(R"({"next_global_id":4294967296})", &next));
  EXPECT_FALSE(ParseNextGlobalId(
      R"({"next_global_id":1234567890123456789012345})", &next));
  EXPECT_EQ(next, 7u);  // untouched on failure
}

}  // namespace
}  // namespace sgq

