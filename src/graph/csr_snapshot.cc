#include "graph/csr_snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>

#include "util/mmap_file.h"

namespace sgq {

namespace {

constexpr size_t kHeaderBytes = 64;
constexpr size_t kEntryBytes = 48;
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// The payload arrays are stored as raw host words, so the format is defined
// for little-endian hosts only; foreign files are rejected via the header's
// endian tag and foreign hosts via this check.
struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  uint8_t first;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

struct Checksummer {
  uint64_t h = kFnvOffset;
  void Update(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  }
};

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

uint64_t Align8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

struct GraphEntry {
  uint64_t payload_offset = 0;  // from payload start, 8-aligned
  uint64_t payload_len = 0;     // padded total of the seven arrays
  uint32_t num_vertices = 0;
  uint32_t num_distinct_labels = 0;
  uint64_t neighbors_len = 0;   // 2 * num_edges
  uint32_t label_bound = 0;
  uint32_t max_degree = 0;
};

void SerializeEntry(const GraphEntry& e, std::string* out) {
  PutU64(out, e.payload_offset);
  PutU64(out, e.payload_len);
  PutU32(out, e.num_vertices);
  PutU32(out, e.num_distinct_labels);
  PutU64(out, e.neighbors_len);
  PutU32(out, e.label_bound);
  PutU32(out, e.max_degree);
  PutU64(out, 0);  // reserved
}

GraphEntry DeserializeEntry(const uint8_t* p) {
  GraphEntry e;
  e.payload_offset = GetU64(p);
  e.payload_len = GetU64(p + 8);
  e.num_vertices = GetU32(p + 16);
  e.num_distinct_labels = GetU32(p + 20);
  e.neighbors_len = GetU64(p + 24);
  e.label_bound = GetU32(p + 32);
  e.max_degree = GetU32(p + 36);
  return e;
}

struct ParsedHeader {
  uint32_t version = 0;
  uint64_t num_graphs = 0;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
};

// Validates everything about the header except the checksum; `file_size`
// must match the layout the header declares exactly (truncation guard).
bool ParseHeader(const uint8_t* data, size_t file_size, ParsedHeader* out,
                 std::string* error) {
  if (file_size < kHeaderBytes) {
    *error = "snapshot too small for header (" + std::to_string(file_size) +
             " bytes)";
    return false;
  }
  if (std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    *error = "bad snapshot magic";
    return false;
  }
  out->version = GetU32(data + 8);
  const uint32_t endian_tag = GetU32(data + 12);
  if (out->version != kSnapshotVersion) {
    *error = "unsupported snapshot version " + std::to_string(out->version) +
             " (expected " + std::to_string(kSnapshotVersion) + ")";
    return false;
  }
  if (endian_tag != kSnapshotEndianTag) {
    *error = "snapshot endianness mismatch (written on a foreign-endian "
             "host)";
    return false;
  }
  if (!HostIsLittleEndian()) {
    *error = "snapshots require a little-endian host";
    return false;
  }
  out->num_graphs = GetU64(data + 16);
  out->payload_bytes = GetU64(data + 24);
  out->checksum = GetU64(data + 32);
  const uint64_t expected_size =
      kHeaderBytes + out->num_graphs * kEntryBytes + out->payload_bytes;
  // Overflow guard before the size comparison.
  if (out->num_graphs > (UINT64_MAX - kHeaderBytes) / kEntryBytes ||
      expected_size < out->payload_bytes) {
    *error = "snapshot header declares an impossible size";
    return false;
  }
  if (expected_size != file_size) {
    *error = "snapshot truncated or oversized: header declares " +
             std::to_string(expected_size) + " bytes, file has " +
             std::to_string(file_size);
    return false;
  }
  return true;
}

uint64_t ComputeChecksum(const uint8_t* data, size_t file_size) {
  // Covers everything after the header: graph table + payload.
  Checksummer sum;
  sum.Update(data + kHeaderBytes, file_size - kHeaderBytes);
  return sum.h;
}

bool EnvForcesChecksum() {
  const char* env = std::getenv("SGQ_SNAPSHOT_VERIFY");
  return env != nullptr && std::string(env) == "on";
}

}  // namespace

// Friend of Graph: bulk access to the CSR arrays for the writer, and
// zero-copy view construction for the loader.
class CsrSnapshotAccess {
 public:
  struct Arrays {
    std::span<const Label> labels;
    std::span<const uint32_t> offsets;
    std::span<const VertexId> neighbors;
    std::span<const Label> neighbor_labels;
    std::span<const Label> label_values;
    std::span<const uint32_t> label_offsets;
    std::span<const VertexId> vertices_by_label;
  };

  static Arrays Get(const Graph& g) {
    return {g.labels_,       g.offsets_,       g.neighbors_,
            g.neighbor_labels_, g.label_values_, g.label_offsets_,
            g.vertices_by_label_};
  }

  static Graph MakeView(std::shared_ptr<const MappedFile> mapping,
                        const Arrays& a, uint32_t label_bound,
                        uint32_t max_degree) {
    Graph g;
    g.mapping_ = std::move(mapping);
    g.labels_ = a.labels;
    g.offsets_ = a.offsets;
    g.neighbors_ = a.neighbors;
    g.neighbor_labels_ = a.neighbor_labels;
    g.label_values_ = a.label_values;
    g.label_offsets_ = a.label_offsets;
    g.vertices_by_label_ = a.vertices_by_label;
    g.label_bound_ = label_bound;
    g.max_degree_ = max_degree;
    return g;
  }
};

namespace {

// The seven array lengths (in elements) a graph's payload holds, in file
// order. A default-constructed Graph has empty offset spans; it serializes
// as the canonical empty graph (offsets == [0]).
struct ArrayLens {
  uint64_t lens[7];
};

ArrayLens LensFor(uint32_t n, uint64_t m, uint32_t num_labels) {
  return {{n, uint64_t{n} + 1, m, m, num_labels, uint64_t{num_labels} + 1, n}};
}

uint64_t PaddedPayloadLen(const ArrayLens& lens) {
  uint64_t total = 0;
  for (uint64_t len : lens.lens) total += Align8(len * 4);
  return total;
}

}  // namespace

bool WriteSnapshot(const GraphDatabase& db, const std::string& path,
                   std::string* error) {
  if (!HostIsLittleEndian()) {
    *error = "snapshots can only be written on a little-endian host";
    return false;
  }
  // Layout pass: per-graph entries and the payload size.
  std::vector<GraphEntry> entries;
  entries.reserve(db.size());
  uint64_t cursor = 0;
  for (GraphId id = 0; id < db.size(); ++id) {
    const Graph& g = db.graph(id);
    GraphEntry e;
    e.num_vertices = g.NumVertices();
    e.num_distinct_labels = g.NumDistinctLabels();
    e.neighbors_len = 2 * g.NumEdges();
    e.label_bound = g.LabelBound();
    e.max_degree = g.MaxDegree();
    e.payload_offset = cursor;
    e.payload_len = PaddedPayloadLen(
        LensFor(e.num_vertices, e.neighbors_len, e.num_distinct_labels));
    cursor += e.payload_len;
    entries.push_back(e);
  }
  const uint64_t payload_bytes = cursor;

  std::string table;
  table.reserve(entries.size() * kEntryBytes);
  for (const GraphEntry& e : entries) SerializeEntry(e, &table);

  // Checksum pass: table, then each array with its zero padding, exactly
  // the bytes the write pass emits.
  Checksummer sum;
  sum.Update(table.data(), table.size());
  static constexpr char kZeros[8] = {0};
  auto for_each_array = [&](const Graph& g, const GraphEntry& e, auto&& fn) {
    const auto a = CsrSnapshotAccess::Get(g);
    const ArrayLens lens =
        LensFor(e.num_vertices, e.neighbors_len, e.num_distinct_labels);
    const void* ptrs[7] = {a.labels.data(),          a.offsets.data(),
                           a.neighbors.data(),       a.neighbor_labels.data(),
                           a.label_values.data(),    a.label_offsets.data(),
                           a.vertices_by_label.data()};
    // A default-constructed (never Built) empty graph has no offset arrays;
    // substitute the canonical single-zero u32 rows.
    static constexpr uint32_t kZeroRow[1] = {0};
    const bool degenerate = a.offsets.empty();
    for (int i = 0; i < 7; ++i) {
      const uint64_t bytes = lens.lens[i] * 4;
      const void* p = ptrs[i];
      if (degenerate && (i == 1 || i == 5)) p = kZeroRow;
      fn(p, bytes, Align8(bytes) - bytes);
    }
  };
  for (GraphId id = 0; id < db.size(); ++id) {
    for_each_array(db.graph(id), entries[id],
                   [&](const void* p, uint64_t bytes, uint64_t pad) {
                     sum.Update(p, bytes);
                     sum.Update(kZeros, pad);
                   });
  }

  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&header, kSnapshotVersion);
  PutU32(&header, kSnapshotEndianTag);
  PutU64(&header, db.size());
  PutU64(&header, payload_bytes);
  PutU64(&header, sum.h);
  header.append(kHeaderBytes - header.size(), '\0');

  // Atomic replace: the bytes go to a temp file that is fsync'ed and then
  // renamed over `path`. A process that still maps the old file keeps its
  // (now unlinked) inode intact, where truncating in place would turn every
  // page it touches into SIGBUS.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::unique_ptr<std::FILE, FileCloser> out(std::fopen(tmp.c_str(), "wb"));
  if (out == nullptr) {
    *error = "cannot open for writing: " + tmp + ": " + std::strerror(errno);
    return false;
  }
  bool ok = true;
  auto put = [&](const void* p, uint64_t bytes) {
    if (ok && bytes > 0) ok = std::fwrite(p, 1, bytes, out.get()) == bytes;
  };
  put(header.data(), header.size());
  put(table.data(), table.size());
  for (GraphId id = 0; id < db.size(); ++id) {
    for_each_array(db.graph(id), entries[id],
                   [&](const void* p, uint64_t bytes, uint64_t pad) {
                     put(p, bytes);
                     put(kZeros, pad);
                   });
  }
  ok = ok && std::fflush(out.get()) == 0 && ::fsync(::fileno(out.get())) == 0;
  ok = std::fclose(out.release()) == 0 && ok;
  if (!ok) {
    *error = "write failed: " + tmp + ": " + std::strerror(errno);
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "cannot rename " + tmp + " onto " + path + ": " +
             std::strerror(errno);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool LoadSnapshot(const std::string& path, GraphDatabase* db,
                  std::string* error, bool verify_checksum) {
  auto mapping = MappedFile::Open(path, error);
  if (mapping == nullptr) return false;
  const uint8_t* data = mapping->data();
  ParsedHeader header;
  if (!ParseHeader(data, mapping->size(), &header, error)) return false;
  if (verify_checksum || EnvForcesChecksum()) {
    const uint64_t actual = ComputeChecksum(data, mapping->size());
    if (actual != header.checksum) {
      *error = "snapshot checksum mismatch (file corrupted)";
      return false;
    }
  }

  const uint8_t* table = data + kHeaderBytes;
  const uint8_t* payload = table + header.num_graphs * kEntryBytes;
  GraphDatabase result;
  for (uint64_t i = 0; i < header.num_graphs; ++i) {
    const GraphEntry e = DeserializeEntry(table + i * kEntryBytes);
    const ArrayLens lens =
        LensFor(e.num_vertices, e.neighbors_len, e.num_distinct_labels);
    if (e.payload_len != PaddedPayloadLen(lens) ||
        e.payload_offset % 8 != 0 ||
        e.payload_offset > header.payload_bytes ||
        e.payload_len > header.payload_bytes - e.payload_offset) {
      *error = "snapshot graph " + std::to_string(i) +
               ": payload bounds are inconsistent";
      return false;
    }
    const uint8_t* cursor = payload + e.payload_offset;
    const uint32_t* arrays[7];
    for (int k = 0; k < 7; ++k) {
      arrays[k] = reinterpret_cast<const uint32_t*>(cursor);
      cursor += Align8(lens.lens[k] * 4);
    }
    CsrSnapshotAccess::Arrays a;
    a.labels = {arrays[0], static_cast<size_t>(lens.lens[0])};
    a.offsets = {arrays[1], static_cast<size_t>(lens.lens[1])};
    a.neighbors = {arrays[2], static_cast<size_t>(lens.lens[2])};
    a.neighbor_labels = {arrays[3], static_cast<size_t>(lens.lens[3])};
    a.label_values = {arrays[4], static_cast<size_t>(lens.lens[4])};
    a.label_offsets = {arrays[5], static_cast<size_t>(lens.lens[5])};
    a.vertices_by_label = {arrays[6], static_cast<size_t>(lens.lens[6])};
    // O(1) structural invariants: the CSR and label-index offset arrays
    // must close over their value arrays.
    if (a.offsets[e.num_vertices] != e.neighbors_len ||
        a.label_offsets[e.num_distinct_labels] != e.num_vertices) {
      *error = "snapshot graph " + std::to_string(i) +
               ": offset arrays are inconsistent";
      return false;
    }
    result.Add(CsrSnapshotAccess::MakeView(mapping, a, e.label_bound,
                                           e.max_degree));
  }
  *db = std::move(result);
  return true;
}

bool VerifySnapshot(const std::string& path, std::string* error) {
  auto mapping = MappedFile::Open(path, error);
  if (mapping == nullptr) return false;
  ParsedHeader header;
  if (!ParseHeader(mapping->data(), mapping->size(), &header, error)) {
    return false;
  }
  const uint64_t actual = ComputeChecksum(mapping->data(), mapping->size());
  if (actual != header.checksum) {
    *error = "snapshot checksum mismatch (file corrupted)";
    return false;
  }
  // Structural pass: the same per-graph validation a load performs.
  GraphDatabase scratch;
  return LoadSnapshot(path, &scratch, error, /*verify_checksum=*/false);
}

bool IsSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kSnapshotMagic)];
  if (!in.read(magic, sizeof(magic))) return false;
  return std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0;
}

bool ReadSnapshotInfo(const std::string& path, SnapshotInfo* info,
                      std::string* error) {
  auto mapping = MappedFile::Open(path, error);
  if (mapping == nullptr) return false;
  ParsedHeader header;
  if (!ParseHeader(mapping->data(), mapping->size(), &header, error)) {
    return false;
  }
  info->version = header.version;
  info->num_graphs = header.num_graphs;
  info->payload_bytes = header.payload_bytes;
  info->checksum = header.checksum;
  info->total_vertices = 0;
  info->total_edges = 0;
  const uint8_t* table = mapping->data() + kHeaderBytes;
  for (uint64_t i = 0; i < header.num_graphs; ++i) {
    const GraphEntry e = DeserializeEntry(table + i * kEntryBytes);
    info->total_vertices += e.num_vertices;
    info->total_edges += e.neighbors_len / 2;
  }
  return true;
}

bool GraphsEqual(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() ||
      a.NumDistinctLabels() != b.NumDistinctLabels() ||
      a.LabelBound() != b.LabelBound() || a.MaxDegree() != b.MaxDegree()) {
    return false;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    if (a.label(v) != b.label(v)) return false;
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

bool DatabasesEqual(const GraphDatabase& a, const GraphDatabase& b) {
  if (a.size() != b.size()) return false;
  for (GraphId i = 0; i < a.size(); ++i) {
    if (!GraphsEqual(a.graph(i), b.graph(i))) return false;
  }
  return true;
}

}  // namespace sgq
