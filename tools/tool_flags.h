// Minimal --key value flag parser shared by the sgq command-line tools
// (sgq_cli, sgq_server, sgq_router, sgq_client, sgq_snapshot), plus the
// listen flags the two serving tools share.
#ifndef SGQ_TOOLS_TOOL_FLAGS_H_
#define SGQ_TOOLS_TOOL_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "service/line_server.h"

namespace sgq_tools {

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        ok_ = false;
        return;
      }
      key = key.substr(2);
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --%s\n", key.c_str());
        ok_ = false;
        return;
      }
      values_[key] = argv[++i];
    }
  }

  bool ok() const { return ok_; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  // All provided keys must be in `allowed`.
  bool Validate(const std::vector<std::string>& allowed) const {
    for (const auto& [key, value] : values_) {
      bool found = false;
      for (const auto& a : allowed) found |= a == key;
      if (!found) {
        std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
        return false;
      }
    }
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

// Reads --socket / --port / --host / --max-request-bytes. False (after a
// message) when neither --socket nor --port is given.
inline bool ReadListenFlags(const Flags& flags, sgq::ListenConfig* config) {
  if (!flags.Has("socket") && !flags.Has("port")) {
    std::fprintf(stderr, "one of --socket or --port is required\n");
    return false;
  }
  config->unix_path = flags.Get("socket", "");
  if (flags.Has("port")) {
    config->port = static_cast<int>(flags.GetDouble("port", 0));
  }
  config->host = flags.Get("host", "127.0.0.1");
  config->max_payload_bytes = static_cast<size_t>(flags.GetDouble(
      "max-request-bytes", static_cast<double>(sgq::kDefaultMaxPayloadBytes)));
  return true;
}

// "unix:<path>" or "<host>:<port>", for the start-up banner.
inline std::string ListenAddress(const sgq::ListenConfig& config,
                                 uint16_t port) {
  if (!config.unix_path.empty()) return "unix:" + config.unix_path;
  return config.host + ":" + std::to_string(port);
}

}  // namespace sgq_tools

#endif  // SGQ_TOOLS_TOOL_FLAGS_H_
