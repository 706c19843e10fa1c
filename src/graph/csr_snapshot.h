// Binary memory-mapped CSR snapshot format for graph databases.
//
// A snapshot is the compiled form of the text format (graph/graph_io.h):
// every array a Graph needs at query time — labels, CSR offsets, sorted
// adjacency, sorted neighbor labels, and the label index — laid out
// verbatim, little-endian, 8-byte aligned. Loading is O(mmap): the file is
// mapped read-only and each Graph is constructed as a zero-copy VIEW into
// the mapping (Graph::IsMapped()), so server startup and RELOAD cost page
// faults instead of a text parse, and the intersection kernels run directly
// on the mapped adjacency arrays. Query answers over a snapshot-loaded
// database are bit-identical to the text-loaded one by construction — the
// bytes ARE the same arrays GraphBuilder::Build would produce.
//
// File layout (all integers little-endian):
//
//   FileHeader   64 bytes   magic "SGQCSR1\n", version, endian tag,
//                           graph count, payload size, FNV-1a checksum
//   GraphEntry[] 48 bytes   per graph: payload offset/size + the scalar
//                           fields (vertex count, distinct labels,
//                           adjacency length, label bound, max degree)
//   payload                 per graph, 8-byte aligned u32 arrays in order:
//                           labels[n], offsets[n+1], neighbors[m],
//                           neighbor_labels[m], label_values[L],
//                           label_offsets[L+1], vertices_by_label[n]
//
// Validation: LoadSnapshot always checks magic, version, endian tag, exact
// file size, per-graph bounds, and the offsets[n] == m structural invariant
// — O(#graphs), so a malformed or truncated file fails cleanly without an
// O(bytes) scan. The checksum covers the graph table + payload and is
// verified on demand (VerifySnapshot, `sgq_snapshot --verify/--check`, or
// SGQ_SNAPSHOT_VERIFY=on to force it at every load).
#ifndef SGQ_GRAPH_CSR_SNAPSHOT_H_
#define SGQ_GRAPH_CSR_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "graph/graph_database.h"

namespace sgq {

// First bytes of every snapshot file; LoadDatabase sniffs these to
// auto-detect snapshots behind the text loader.
inline constexpr char kSnapshotMagic[8] = {'S', 'G', 'Q', 'C',
                                           'S', 'R', '1', '\n'};
inline constexpr uint32_t kSnapshotVersion = 1;
// Written as a u32 in host byte order; a reader on a host with different
// endianness sees the bytes reversed and rejects the file (the payload
// arrays are raw host-endian words, so a byte-swapped load would be wrong).
inline constexpr uint32_t kSnapshotEndianTag = 0x01020304u;

// Compiles the database into a snapshot file. The file is written under a
// temporary name (`path` + ".tmp." + pid), fsync'ed and renamed onto
// `path`, so a reader that still maps an older file at `path` keeps seeing
// its contents intact. Returns false + *error on IO failure, leaving no
// temporary file behind.
bool WriteSnapshot(const GraphDatabase& db, const std::string& path,
                   std::string* error);

// Maps `path` and fills *db with zero-copy views into the mapping (the
// mapping stays alive for as long as any loaded Graph, or any copy of one,
// does). Structural validation always runs; the full checksum only when
// `verify_checksum` (or SGQ_SNAPSHOT_VERIFY=on) asks for it.
bool LoadSnapshot(const std::string& path, GraphDatabase* db,
                  std::string* error, bool verify_checksum = false);

// Full integrity check without constructing graphs: header + structure +
// checksum over the whole file. Cheap enough to run in CI on every build.
bool VerifySnapshot(const std::string& path, std::string* error);

// True iff the file starts with the snapshot magic (false on IO errors, so
// callers fall through to the text parser and report its error instead).
bool IsSnapshotFile(const std::string& path);

// Header fields of a snapshot, for `sgq_snapshot --info`.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t num_graphs = 0;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
  uint64_t total_vertices = 0;
  uint64_t total_edges = 0;
};
bool ReadSnapshotInfo(const std::string& path, SnapshotInfo* info,
                      std::string* error);

// Deep structural equality of two graphs: same labels, same adjacency, same
// label index. Storage mode (owned vs mapped) is irrelevant. Used by the
// `sgq_snapshot --verify` round-trip and the snapshot tests.
bool GraphsEqual(const Graph& a, const Graph& b);
bool DatabasesEqual(const GraphDatabase& a, const GraphDatabase& b);

}  // namespace sgq

#endif  // SGQ_GRAPH_CSR_SNAPSHOT_H_
