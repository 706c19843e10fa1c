#include "query/stats.h"

#include <cstdio>

namespace sgq {

namespace {

// Appends `"key":value` (with a leading comma unless first) for the JSON
// emitters below. %.17g round-trips doubles but is noisy; %.6g keeps the
// figures readable and is far below timer resolution anyway.
void AppendField(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g",
                out->back() == '{' ? "" : ",", key, value);
  *out += buf;
}

void AppendField(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu",
                out->back() == '{' ? "" : ",", key,
                static_cast<unsigned long long>(value));
  *out += buf;
}

void AppendField(std::string* out, const char* key, bool value) {
  *out += out->back() == '{' ? "\"" : ",\"";
  *out += key;
  *out += value ? "\":true" : "\":false";
}

}  // namespace

std::string ToJson(const QueryStats& stats) {
  std::string out = "{";
  AppendField(&out, "filtering_ms", stats.filtering_ms);
  AppendField(&out, "verification_ms", stats.verification_ms);
  AppendField(&out, "query_ms", stats.QueryMs());
  AppendField(&out, "num_candidates", stats.num_candidates);
  AppendField(&out, "num_answers", stats.num_answers);
  AppendField(&out, "si_tests", stats.si_tests);
  AppendField(&out, "timed_out", stats.timed_out);
  AppendField(&out, "aux_memory_bytes",
              static_cast<uint64_t>(stats.aux_memory_bytes));
  AppendField(&out, "ws_filter_hits", stats.ws_filter_hits);
  AppendField(&out, "ws_filter_misses", stats.ws_filter_misses);
  AppendField(&out, "intersect_calls", stats.intersect_calls);
  AppendField(&out, "intersect_merge", stats.intersect_merge);
  AppendField(&out, "intersect_gallop", stats.intersect_gallop);
  AppendField(&out, "intersect_simd", stats.intersect_simd);
  AppendField(&out, "local_candidates", stats.local_candidates);
  out += "}";
  return out;
}

std::string ToJson(const QuerySetSummary& summary) {
  std::string out = "{";
  AppendField(&out, "num_queries", static_cast<uint64_t>(summary.num_queries));
  AppendField(&out, "num_timeouts",
              static_cast<uint64_t>(summary.num_timeouts));
  AppendField(&out, "avg_filtering_ms", summary.avg_filtering_ms);
  AppendField(&out, "avg_verification_ms", summary.avg_verification_ms);
  AppendField(&out, "avg_query_ms", summary.avg_query_ms);
  AppendField(&out, "filtering_precision", summary.filtering_precision);
  AppendField(&out, "avg_candidates", summary.avg_candidates);
  AppendField(&out, "per_si_test_ms", summary.per_si_test_ms);
  out += "}";
  return out;
}

QuerySetSummary Summarize(std::span<const QueryResult> results,
                          double timeout_ms) {
  QuerySetSummary s;
  s.num_queries = static_cast<uint32_t>(results.size());
  if (results.empty()) return s;
  double sum_filter = 0, sum_verify = 0, sum_query = 0;
  double sum_precision = 0, sum_candidates = 0, sum_per_si = 0;
  for (const QueryResult& r : results) {
    const QueryStats& q = r.stats;
    if (q.timed_out) {
      ++s.num_timeouts;
      sum_query += timeout_ms;
    } else {
      sum_query += q.QueryMs();
    }
    sum_filter += q.filtering_ms;
    sum_verify += q.verification_ms;
    sum_candidates += static_cast<double>(q.num_candidates);
    sum_precision += q.num_candidates == 0
                         ? 1.0
                         : static_cast<double>(q.num_answers) /
                               static_cast<double>(q.num_candidates);
    if (q.num_candidates > 0) {
      sum_per_si +=
          q.verification_ms / static_cast<double>(q.num_candidates);
    }
  }
  const double n = static_cast<double>(results.size());
  s.avg_filtering_ms = sum_filter / n;
  s.avg_verification_ms = sum_verify / n;
  s.avg_query_ms = sum_query / n;
  s.filtering_precision = sum_precision / n;
  s.avg_candidates = sum_candidates / n;
  s.per_si_test_ms = sum_per_si / n;
  return s;
}

}  // namespace sgq
