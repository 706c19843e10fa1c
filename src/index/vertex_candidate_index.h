// Degree/label-partitioned candidate index for massive single data graphs.
//
// The first-level candidate generator (LdfNlfCandidatesInto in
// matching/candidate_space.h, which also gives CFL its root candidates)
// and CFL's root selection start from "every data vertex with label(u)"
// and filter by degree and neighbor-label profile. On an AIDS-style
// database of small graphs that scan is a handful of vertices; on one
// social-network-scale graph a popular label's bucket holds millions, and
// the O(bucket) scan per query vertex dominates filtering. This index — in
// the spirit of CNI ("Compact Neighborhood Index for Subgraph Queries in
// Massive Graphs") — re-partitions each label bucket for the two filters:
//
//   * entries within a bucket are sorted by degree (ties by id), so the LDF
//     lower bound `degree >= degree(u)` becomes a binary search that slices
//     off the qualifying suffix instead of testing every vertex;
//   * each entry carries a 64-bit neighbor-label signature (one hash bit
//     per distinct neighbor label). A data vertex can only satisfy the NLF
//     multiset test if its signature is a bitwise superset of the query
//     vertex's, so most non-candidates die on one AND instead of a
//     multiset-containment walk.
//
// Both filters are conservative: the degree slice is exact and the
// signature never rejects a true candidate, so callers that re-check the
// exact NLF predicate produce candidate sets BIT-IDENTICAL to the full
// scan — the index is a pure accelerator. Built once at load time, shared
// read-only by every query thread (and every copy of the graph).
#ifndef SGQ_INDEX_VERTEX_CANDIDATE_INDEX_H_
#define SGQ_INDEX_VERTEX_CANDIDATE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "graph/types.h"

namespace sgq {

class VertexCandidateIndex {
 public:
  // Builds the index over one data graph. O(|V| log |V|) time, ~16 bytes
  // per vertex.
  static std::shared_ptr<const VertexCandidateIndex> Build(const Graph& g);

  // The signature bit for one label / the OR over a label span (use the
  // sorted NeighborLabels(u) of the query vertex; duplicates are harmless).
  static uint64_t LabelBit(Label l);
  static uint64_t SignatureOf(std::span<const Label> labels);

  // Appends to *out every vertex with label `l`, degree >= `min_degree`, a
  // signature superset of `sig`, and keep(v) true, in ascending id order.
  // The degree slice is walked in index order and only the survivors are
  // sorted, so a selective `keep` (the exact NLF test) spares the sort
  // everything it rejects. Returns the number of index entries examined
  // after the degree slice (the bucket suffix length) — the cost the full
  // scan would have paid is the whole bucket, so callers can report the
  // reduction.
  template <typename Keep>
  size_t CollectCandidates(Label l, uint32_t min_degree, uint64_t sig,
                           Keep&& keep, std::vector<VertexId>* out) const {
    const auto [lo, end] = DegreeSlice(l, min_degree);
    const size_t first_out = out->size();
    for (uint32_t i = lo; i < end; ++i) {
      if ((signatures_[i] & sig) == sig && keep(ids_[i])) {
        out->push_back(ids_[i]);
      }
    }
    // The bucket is degree-ordered, not id-ordered; restore the ascending-
    // id order every candidate-set consumer relies on.
    std::sort(out->begin() + static_cast<ptrdiff_t>(first_out), out->end());
    return end - lo;
  }
  size_t CollectCandidates(Label l, uint32_t min_degree, uint64_t sig,
                           std::vector<VertexId>* out) const {
    return CollectCandidates(
        l, min_degree, sig, [](VertexId) { return true; }, out);
  }

  // Exact count of vertices with label `l` and degree >= `min_degree`,
  // O(log bucket). This is the LDF candidate count CFL's root selection
  // needs, without scanning the bucket.
  uint32_t CountWithLabelDegree(Label l, uint32_t min_degree) const;

  // Whole bucket size for `l` (what a full scan would traverse).
  uint32_t BucketSize(Label l) const;

  uint32_t NumVertices() const {
    return static_cast<uint32_t>(ids_.size());
  }
  size_t MemoryBytes() const;

 private:
  VertexCandidateIndex() = default;

  // Bucket slot for label `l`, or SIZE_MAX when absent.
  size_t SlotOf(Label l) const;
  // Entry range [first, last) of label `l` with degree >= `min_degree`
  // (empty when the label is absent).
  std::pair<uint32_t, uint32_t> DegreeSlice(Label l,
                                            uint32_t min_degree) const;

  // Distinct labels sorted ascending; bucket i spans
  // [bucket_offsets_[i], bucket_offsets_[i+1]) of the parallel arrays.
  std::vector<Label> label_values_;
  std::vector<uint32_t> bucket_offsets_;
  // Parallel entry arrays, sorted by (degree, id) within each bucket.
  std::vector<VertexId> ids_;
  std::vector<uint32_t> degrees_;
  std::vector<uint64_t> signatures_;
};

// Builds and attaches a candidate index to every graph of `db` with at
// least `min_vertices` vertices (UINT32_MAX disables). The
// SGQ_CANDIDATE_INDEX environment variable overrides: "off" attaches
// nothing, "on" indexes every graph regardless of size (the bit-identity
// CI leg). Returns the number of graphs indexed.
size_t AttachCandidateIndexes(GraphDatabase* db, uint32_t min_vertices);

// Single-graph variant for live mutations (ADD GRAPH): applies the same
// size/environment policy to one incoming graph. Returns true if an index
// was attached.
bool MaybeAttachCandidateIndex(Graph* g, uint32_t min_vertices);

}  // namespace sgq

#endif  // SGQ_INDEX_VERTEX_CANDIDATE_INDEX_H_
