#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sgqbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bad flag near '%s'\n", argv[i]);
      ok_ = false;
      return;
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Flags::Get(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

uint64_t Flags::GetU64(const std::string& name, uint64_t def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def
                             : std::strtoull(it->second.c_str(), nullptr, 10);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

namespace {

void EncodeOps(const std::vector<Op>& ops, std::string* out) {
  for (const Op& op : ops) {
    *out += op.kind;
    *out += ' ' + std::to_string(op.index) + ' ' + std::to_string(op.slot) +
            ' ' + std::to_string(op.sched_ns) + ' ' +
            std::to_string(op.payload.size()) + '\n';
    *out += op.payload;
    *out += '\n';
  }
}

bool DecodeOps(std::string_view text, size_t* pos, size_t count,
               std::vector<Op>* ops) {
  for (size_t i = 0; i < count; ++i) {
    const size_t eol = text.find('\n', *pos);
    if (eol == std::string_view::npos) return false;
    const std::string header(text.substr(*pos, eol - *pos));
    Op op;
    unsigned long long index = 0, slot = 0, len = 0;
    long long sched = 0;
    char kind = 0;
    if (std::sscanf(header.c_str(), "%c %llu %llu %lld %llu", &kind, &index,
                    &slot, &sched, &len) != 5 ||
        (kind != 'Q' && kind != 'A' && kind != 'R') ||
        eol + 1 + len + 1 > text.size()) {
      return false;
    }
    op.kind = kind;
    op.index = static_cast<uint32_t>(index);
    op.slot = static_cast<uint32_t>(slot);
    op.sched_ns = sched;
    op.payload = std::string(text.substr(eol + 1, len));
    *pos = eol + 1 + len + 1;
    ops->push_back(std::move(op));
  }
  return true;
}

}  // namespace

std::string EncodeStream(const Stream& stream) {
  std::string out = "sgqbench-stream " + std::to_string(stream.warm.size()) +
                    ' ' + std::to_string(stream.open.size()) + ' ' +
                    std::to_string(stream.closed.size()) + '\n';
  EncodeOps(stream.warm, &out);
  EncodeOps(stream.open, &out);
  EncodeOps(stream.closed, &out);
  return out;
}

bool LoadStream(const std::string& path, Stream* stream, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  const size_t eol = text.find('\n');
  unsigned long long n_warm = 0, n_open = 0, n_closed = 0;
  if (eol == std::string::npos ||
      std::sscanf(text.substr(0, eol).c_str(),
                  "sgqbench-stream %llu %llu %llu", &n_warm, &n_open,
                  &n_closed) != 3) {
    *error = "bad stream header in " + path;
    return false;
  }
  size_t pos = eol + 1;
  if (!DecodeOps(text, &pos, n_warm, &stream->warm) ||
      !DecodeOps(text, &pos, n_open, &stream->open) ||
      !DecodeOps(text, &pos, n_closed, &stream->closed)) {
    *error = "truncated stream in " + path;
    return false;
  }
  return true;
}

std::string EncodeIdLists(const std::vector<std::vector<uint32_t>>& lists) {
  std::string out;
  for (const auto& ids : lists) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(ids[i]);
    }
    out += '\n';
  }
  return out;
}

bool LoadIdLists(const std::string& path,
                 std::vector<std::vector<uint32_t>>* lists) {
  std::string text;
  if (!ReadFile(path, &text)) return false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<uint32_t> ids;
    uint32_t id = 0;
    while (fields >> id) ids.push_back(id);
    lists->push_back(std::move(ids));
  }
  return true;
}

bool LoadBaseGraphs(const std::string& dir, uint32_t* base_graphs) {
  std::string text;
  unsigned count = 0;
  if (!ReadFile(dir + "/meta.txt", &text) ||
      std::sscanf(text.c_str(), "base_graphs %u", &count) != 1) {
    return false;
  }
  *base_graphs = count;
  return true;
}

std::string QueryWire(std::string_view graph_text) {
  return "QUERY " + std::to_string(graph_text.size()) + ' ' +
         std::to_string(kQueryTimeoutSeconds) + " IDS\n" +
         std::string(graph_text);
}

std::string AddWire(std::string_view graph_text) {
  return "ADD GRAPH " + std::to_string(graph_text.size()) + '\n' +
         std::string(graph_text);
}

std::string RemoveWire(uint64_t gid) {
  return "REMOVE GRAPH " + std::to_string(gid) + '\n';
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace sgqbench
