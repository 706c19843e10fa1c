#include "service/protocol.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

namespace sgq {

namespace {

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) tokens.push_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

bool ParseTimeout(std::string_view token, double* seconds) {
  char* end = nullptr;
  const std::string copy(token);
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || value < 0 || value != value) {
    return false;
  }
  *seconds = value;
  return true;
}

bool ParseLength(std::string_view token, size_t* length) {
  if (token.empty()) return false;
  size_t value = 0;
  for (const char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    const size_t digit = static_cast<size_t>(c - '0');
    if (value > (SIZE_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *length = value;
  return true;
}

// ParseLength, further bounded to the GraphId range: an id that does not
// fit is an error, never a silent wrap onto a small id.
bool ParseGraphId(std::string_view token, GraphId* id) {
  size_t value = 0;
  if (!ParseLength(token, &value) ||
      value > std::numeric_limits<GraphId>::max()) {
    return false;
  }
  *id = static_cast<GraphId>(value);
  return true;
}

// One-line sanitization for messages echoed back over the wire.
std::string StripNewlines(std::string_view message) {
  std::string out;
  out.reserve(message.size());
  for (const char c : message) out += (c == '\n' || c == '\r') ? ' ' : c;
  return out;
}

}  // namespace

RequestParser::Status RequestParser::Next(Request* request,
                                          std::string* error) {
  if (failed_) {
    *error = "parser in error state";
    return Status::kError;
  }
  for (;;) {
    if (awaiting_payload_) {
      if (buffer_.size() < payload_bytes_) return Status::kNeedMore;
      pending_.graph_text = buffer_.substr(0, payload_bytes_);
      buffer_.erase(0, payload_bytes_);
      awaiting_payload_ = false;
      *request = std::move(pending_);
      pending_ = Request();
      return Status::kReady;
    }
    const size_t newline = buffer_.find('\n');
    if (newline == std::string::npos) {
      if (buffer_.size() > kMaxCommandLineBytes) {
        failed_ = true;
        *error = "command line exceeds " +
                 std::to_string(kMaxCommandLineBytes) + " bytes";
        return Status::kError;
      }
      return Status::kNeedMore;
    }
    std::string_view line(buffer_.data(), newline);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() > kMaxCommandLineBytes) {
      failed_ = true;
      *error = "command line exceeds " +
               std::to_string(kMaxCommandLineBytes) + " bytes";
      return Status::kError;
    }
    const Status status = ParseCommandLine(line, error);
    buffer_.erase(0, newline + 1);
    if (status == Status::kError) {
      failed_ = true;
      return status;
    }
    if (status == Status::kReady) {
      if (awaiting_payload_) continue;  // QUERY <len>: collect the payload
      *request = std::move(pending_);
      pending_ = Request();
      return Status::kReady;
    }
    // kNeedMore: blank line, keep scanning.
  }
}

RequestParser::Status RequestParser::ParseCommandLine(std::string_view line,
                                                      std::string* error) {
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty()) return Status::kNeedMore;  // blank line
  const std::string_view verb = tokens[0];
  pending_ = Request();

  if (verb == "STATS" || verb == "SHUTDOWN") {
    if (tokens.size() != 1) {
      *error = std::string(verb) + " takes no arguments";
      return Status::kError;
    }
    pending_.verb = verb == "STATS" ? Request::Verb::kStats
                                    : Request::Verb::kShutdown;
    return Status::kReady;
  }

  if (verb == "CACHE") {
    // Namespaced admin verb; CLEAR is the only subcommand so far.
    if (tokens.size() != 2 || tokens[1] != "CLEAR") {
      *error = "usage: CACHE CLEAR";
      return Status::kError;
    }
    pending_.verb = Request::Verb::kCacheClear;
    return Status::kReady;
  }

  if (verb == "RELOAD") {
    if (tokens.size() > 2 ||
        (tokens.size() == 2 && tokens[1].front() != '@')) {
      *error = "usage: RELOAD [@<path>]";
      return Status::kError;
    }
    pending_.verb = Request::Verb::kReload;
    if (tokens.size() == 2) pending_.file_ref = tokens[1].substr(1);
    return Status::kReady;
  }

  if (verb == "ADD") {
    // ADD GRAPH <len>|@<path> [ID <gid>]
    constexpr const char* kUsage = "usage: ADD GRAPH <len>|@<path> [ID <gid>]";
    if (tokens.size() < 3 || tokens[1] != "GRAPH") {
      *error = kUsage;
      return Status::kError;
    }
    pending_.verb = Request::Verb::kAddGraph;
    if (tokens.size() == 5 && tokens[3] == "ID") {
      if (!ParseGraphId(tokens[4], &pending_.graph_id)) {
        *error = "bad graph id: " + std::string(tokens[4]);
        return Status::kError;
      }
      pending_.has_graph_id = true;
    } else if (tokens.size() != 3) {
      *error = kUsage;
      return Status::kError;
    }
    if (tokens[2].front() == '@') {
      if (tokens[2].size() == 1) {
        *error = "empty @path";
        return Status::kError;
      }
      pending_.file_ref = tokens[2].substr(1);
      return Status::kReady;
    }
    size_t length = 0;
    if (!ParseLength(tokens[2], &length)) {
      *error = "bad payload length: " + std::string(tokens[2]);
      return Status::kError;
    }
    if (length > max_payload_bytes_) {
      *error = "payload of " + std::to_string(length) +
               " bytes exceeds limit of " +
               std::to_string(max_payload_bytes_);
      return Status::kError;
    }
    awaiting_payload_ = true;
    payload_bytes_ = length;
    return Status::kReady;  // caller loops to collect the payload
  }

  if (verb == "REMOVE") {
    // REMOVE GRAPH <gid>
    if (tokens.size() != 3 || tokens[1] != "GRAPH" ||
        !ParseGraphId(tokens[2], &pending_.graph_id)) {
      *error = "usage: REMOVE GRAPH <gid>";
      return Status::kError;
    }
    pending_.verb = Request::Verb::kRemoveGraph;
    pending_.has_graph_id = true;
    return Status::kReady;
  }

  if (verb == "QUERY") {
    if (tokens.size() < 2) {
      *error = "usage: QUERY <len>|@<path> [timeout_s] [LIMIT <k>] [IDS]";
      return Status::kError;
    }
    pending_.verb = Request::Verb::kQuery;
    // Options after the length/@path token: an optional bare timeout first
    // (the pre-extension grammar), then LIMIT <k> / IDS in either order,
    // each at most once.
    bool saw_option = false;
    bool saw_limit = false, saw_ids = false, saw_stream = false;
    for (size_t i = 2; i < tokens.size(); ++i) {
      if (tokens[i] == "LIMIT") {
        if (saw_limit || i + 1 >= tokens.size()) {
          *error = "usage: LIMIT <k>";
          return Status::kError;
        }
        size_t k = 0;
        if (!ParseLength(tokens[i + 1], &k) || k == 0) {
          *error = "bad LIMIT: " + std::string(tokens[i + 1]);
          return Status::kError;
        }
        pending_.limit = k;
        saw_limit = true;
        saw_option = true;
        ++i;  // consumed the count
      } else if (tokens[i] == "IDS") {
        if (saw_ids) {
          *error = "duplicate IDS";
          return Status::kError;
        }
        pending_.want_ids = true;
        saw_ids = true;
        saw_option = true;
      } else if (tokens[i] == "STREAM") {
        // A server predating the streaming pipeline rejects this token
        // with "unexpected QUERY option" — the clean-failure path the
        // header promises for routers talking to old servers.
        if (saw_stream) {
          *error = "duplicate STREAM";
          return Status::kError;
        }
        pending_.stream = true;
        saw_stream = true;
        saw_option = true;
      } else if (i == 2 && !saw_option) {
        if (!ParseTimeout(tokens[i], &pending_.timeout_seconds)) {
          *error = "bad timeout: " + std::string(tokens[i]);
          return Status::kError;
        }
      } else {
        *error = "unexpected QUERY option: " + std::string(tokens[i]);
        return Status::kError;
      }
    }
    if (tokens[1].front() == '@') {
      if (tokens[1].size() == 1) {
        *error = "empty @path";
        return Status::kError;
      }
      pending_.file_ref = tokens[1].substr(1);
      return Status::kReady;
    }
    size_t length = 0;
    if (!ParseLength(tokens[1], &length)) {
      *error = "bad payload length: " + std::string(tokens[1]);
      return Status::kError;
    }
    if (length > max_payload_bytes_) {
      *error = "payload of " + std::to_string(length) +
               " bytes exceeds limit of " +
               std::to_string(max_payload_bytes_);
      return Status::kError;
    }
    awaiting_payload_ = true;
    payload_bytes_ = length;
    return Status::kReady;  // caller loops to collect the payload
  }

  *error = "unknown verb: " + std::string(verb);
  return Status::kError;
}

std::string FormatQueryResponse(const QueryResult& result) {
  return FormatQueryResponse(result, nullptr, false);
}

std::string FormatQueryResponse(const QueryResult& result,
                                const ShardHealth* shards, bool with_ids) {
  std::string json = ToJson(result.stats);
  if (shards != nullptr) {
    // Splice the shard-health fields into the flat stats object.
    json.pop_back();  // '}'
    json += ",\"shards_ok\":" + std::to_string(shards->ok) +
            ",\"shards_total\":" + std::to_string(shards->total) + "}";
  }
  std::string out = result.stats.timed_out ? "TIMEOUT " : "OK ";
  out += std::to_string(result.answers.size());
  out += ' ';
  out += json;
  out += '\n';
  if (with_ids) out += FormatIdsLine(result.answers);
  return out;
}

std::string FormatIdsLine(std::span<const GraphId> ids) {
  std::string out = "IDS";
  for (const GraphId id : ids) {
    out += ' ';
    out += std::to_string(id);
  }
  out += '\n';
  return out;
}

void ApplyAnswerLimit(QueryResult* result, uint64_t limit) {
  if (limit == 0 || result->answers.size() <= limit) return;
  result->answers.resize(limit);
  result->stats.num_answers = limit;
}

ResponseHead ParseResponseHead(std::string_view line) {
  ResponseHead head;
  while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const size_t space = line.find(' ');
  const std::string_view outcome = line.substr(0, space);
  std::string_view rest =
      space == std::string_view::npos ? std::string_view() : line.substr(space + 1);
  if (outcome == "OK") {
    head.kind = ResponseHead::Kind::kOk;
  } else if (outcome == "TIMEOUT") {
    head.kind = ResponseHead::Kind::kTimeout;
  } else if (outcome == "OVERLOADED") {
    head.kind = ResponseHead::Kind::kOverloaded;
  } else if (outcome == "BAD_REQUEST") {
    head.kind = ResponseHead::Kind::kBadRequest;
  } else if (outcome == "BYE" && rest.empty()) {
    head.kind = ResponseHead::Kind::kBye;
    return head;
  } else {
    return head;  // kMalformed
  }
  // Query responses carry "<n> <stats-json>": a leading all-digit token.
  const size_t count_end = rest.find(' ');
  const std::string_view first = rest.substr(0, count_end);
  size_t count = 0;
  if ((head.kind == ResponseHead::Kind::kOk ||
       head.kind == ResponseHead::Kind::kTimeout) &&
      !first.empty() && ParseLength(first, &count)) {
    head.has_count = true;
    head.num_answers = count;
    rest = count_end == std::string_view::npos ? std::string_view()
                                               : rest.substr(count_end + 1);
  }
  head.body = std::string(rest);
  return head;
}

bool ParseIdsLine(std::string_view line, uint64_t expected,
                  std::vector<GraphId>* ids) {
  ids->clear();
  while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty() || tokens[0] != "IDS") return false;
  if (tokens.size() - 1 != expected) return false;
  ids->resize(expected);
  for (size_t i = 1; i < tokens.size(); ++i) {
    if (!ParseGraphId(tokens[i], &(*ids)[i - 1])) return false;
  }
  return true;
}

bool ParseIdsChunk(std::string_view line, std::vector<GraphId>* ids) {
  while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty() || tokens[0] != "IDS") return false;
  ids->reserve(ids->size() + tokens.size() - 1);
  for (size_t i = 1; i < tokens.size(); ++i) {
    GraphId id = 0;
    if (!ParseGraphId(tokens[i], &id)) return false;
    ids->push_back(id);
  }
  return true;
}

bool ParseRetryAfterMs(std::string_view body, uint64_t* retry_after_ms) {
  constexpr std::string_view kKey = "retry_after_ms=";
  for (const std::string_view token : SplitTokens(body)) {
    if (token.substr(0, kKey.size()) != kKey) continue;
    size_t value = 0;
    if (!ParseLength(token.substr(kKey.size()), &value)) return false;
    *retry_after_ms = value;
    return true;
  }
  return false;
}

namespace {

// Value of `"key":` in a flat json object, as a string_view over the raw
// token (number / true / false). Empty when absent.
std::string_view JsonRawValue(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string_view::npos) return {};
  size_t begin = pos + needle.size();
  size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(begin, end - begin);
}

bool JsonUint(std::string_view json, std::string_view key, uint64_t* out) {
  const std::string_view raw = JsonRawValue(json, key);
  if (raw.empty()) return false;
  size_t value = 0;
  if (!ParseLength(raw, &value)) return false;
  *out = value;
  return true;
}

void JsonDouble(std::string_view json, std::string_view key, double* out) {
  const std::string_view raw = JsonRawValue(json, key);
  if (raw.empty()) return;
  const std::string copy(raw);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() + copy.size()) *out = value;
}

}  // namespace

bool ParseReloadedCount(std::string_view line, uint64_t* count) {
  while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = SplitTokens(line);
  size_t value = 0;
  if (tokens.size() != 4 || tokens[0] != "OK" || tokens[1] != "reloaded" ||
      tokens[3] != "graphs" || !ParseLength(tokens[2], &value)) {
    return false;
  }
  *count = value;
  return true;
}

bool ParseNextGlobalId(std::string_view stats_json, GraphId* next) {
  uint64_t value = 0;
  if (!JsonUint(stats_json, "next_global_id", &value) ||
      value > std::numeric_limits<GraphId>::max()) {
    return false;
  }
  *next = static_cast<GraphId>(value);
  return true;
}

bool ParseQueryStatsJson(std::string_view json, QueryStats* stats) {
  if (json.empty() || json.front() != '{' || json.back() != '}') return false;
  *stats = QueryStats();
  JsonDouble(json, "filtering_ms", &stats->filtering_ms);
  JsonDouble(json, "verification_ms", &stats->verification_ms);
  JsonUint(json, "num_candidates", &stats->num_candidates);
  JsonUint(json, "num_answers", &stats->num_answers);
  JsonUint(json, "si_tests", &stats->si_tests);
  stats->timed_out = JsonRawValue(json, "timed_out") == "true";
  uint64_t aux = 0;
  if (JsonUint(json, "aux_memory_bytes", &aux)) {
    stats->aux_memory_bytes = static_cast<size_t>(aux);
  }
  JsonUint(json, "ws_filter_hits", &stats->ws_filter_hits);
  JsonUint(json, "ws_filter_misses", &stats->ws_filter_misses);
  JsonUint(json, "intersect_calls", &stats->intersect_calls);
  JsonUint(json, "intersect_merge", &stats->intersect_merge);
  JsonUint(json, "intersect_gallop", &stats->intersect_gallop);
  JsonUint(json, "intersect_simd", &stats->intersect_simd);
  JsonUint(json, "local_candidates", &stats->local_candidates);
  return true;
}

bool ParseShardHealth(std::string_view json, ShardHealth* health) {
  uint64_t ok = 0, total = 0;
  if (!JsonUint(json, "shards_ok", &ok) ||
      !JsonUint(json, "shards_total", &total) ||
      total > std::numeric_limits<uint32_t>::max() || ok > total) {
    return false;
  }
  health->ok = static_cast<uint32_t>(ok);
  health->total = static_cast<uint32_t>(total);
  return true;
}

std::string FormatAddedResponse(GraphId global_id) {
  return "OK added " + std::to_string(global_id) + "\n";
}

std::string FormatRemovedResponse(GraphId global_id) {
  return "OK removed " + std::to_string(global_id) + "\n";
}

namespace {

// "OK <action> <gid>" -> gid. False for any other line.
bool ParseMutationResponse(std::string_view line, std::string_view action,
                           GraphId* global_id) {
  while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = SplitTokens(line);
  return tokens.size() == 3 && tokens[0] == "OK" && tokens[1] == action &&
         ParseGraphId(tokens[2], global_id);
}

}  // namespace

bool ParseAddedResponse(std::string_view line, GraphId* global_id) {
  return ParseMutationResponse(line, "added", global_id);
}

bool ParseRemovedResponse(std::string_view line, GraphId* global_id) {
  return ParseMutationResponse(line, "removed", global_id);
}

std::string FormatOverloadedResponse(std::string_view detail) {
  return FormatOverloadedResponse(detail, 0);
}

std::string FormatOverloadedResponse(std::string_view detail,
                                     uint64_t retry_after_ms) {
  std::string out = "OVERLOADED";
  if (retry_after_ms > 0) {
    out += " retry_after_ms=" + std::to_string(retry_after_ms);
  }
  if (!detail.empty()) {
    out += ' ';
    out += StripNewlines(detail);
  }
  out += '\n';
  return out;
}

std::string FormatBadRequestResponse(std::string_view message) {
  return "BAD_REQUEST " + StripNewlines(message) + "\n";
}

}  // namespace sgq
