// Shared pieces of the sgqbench tool: flag parsing, the on-disk input
// formats written by `gen-dataset`/`gen-stream` and read by `drive` and
// `trace`, and the wire requests the driver and the replay send.
//
// Dataset directory (byte-identical on every run of one tool build):
//   db.txt | db.csr   the served database (text, or a CSR snapshot)
//   pool.txt          query pool, one graph per pool index
//   addpool.txt       graphs the benchmark ADDs (never part of the base db)
//   keys.txt          line i: base-graph ids that contain pool query i
//   addkeys.txt       line i: add-pool indices that contain pool query i
//   meta.txt          "base_graphs <n>"
// and per run (byte-identical for one --seed) a stream file holding the
// warm-up, open-loop and closed-loop request sequences.
#ifndef SGQBENCH_COMMON_H_
#define SGQBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sgqbench {

// --name value flags after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  bool ok() const { return ok_; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& def) const;
  double GetDouble(const std::string& name, double def) const;
  uint64_t GetU64(const std::string& name, uint64_t def) const;

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, std::string_view data);

// One request of a stream. kind: 'Q' query of pool[index]; 'A' ADD of
// addpool[index]; 'R' REMOVE of the graph the 'A' with the same `slot`
// added. Queries and ADDs carry their graph text as payload (queries are
// already relabelled).
struct Op {
  char kind = 'Q';
  uint32_t index = 0;
  uint32_t slot = 0;
  int64_t sched_ns = 0;  // open loop: offset from the phase start
  std::string payload;
};

struct Stream {
  // Sent, unscored, before the open loop and before every closed round,
  // after the result cache is cleared: one query per hot-set member.
  std::vector<Op> warm;
  std::vector<Op> open;
  // One round of the closed loop, drawn once with the open loop's mix and
  // sent again in every round, after the cache is cleared and warmed.
  std::vector<Op> closed;
};

std::string EncodeStream(const Stream& stream);
bool LoadStream(const std::string& path, Stream* stream, std::string* error);

// One line of ids per entry.
std::string EncodeIdLists(const std::vector<std::vector<uint32_t>>& lists);
bool LoadIdLists(const std::string& path,
                 std::vector<std::vector<uint32_t>>* lists);

bool LoadBaseGraphs(const std::string& dir, uint32_t* base_graphs);

// Per-request deadline sent on every QUERY: far above any expected
// latency, so a TIMEOUT always means something went wrong, yet short
// enough that a run hitting it still ends within its time limit.
inline constexpr int kQueryTimeoutSeconds = 30;

std::string QueryWire(std::string_view graph_text);
std::string AddWire(std::string_view graph_text);
std::string RemoveWire(uint64_t gid);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Quantile with linear interpolation over an already sorted vector.
double SortedQuantile(const std::vector<double>& sorted, double q);

// Subcommands.
int RunGenDataset(const Flags& flags);
int RunGenStream(const Flags& flags);
int RunDrive(const Flags& flags);
int RunTrace(const Flags& flags);

}  // namespace sgqbench

#endif  // SGQBENCH_COMMON_H_
