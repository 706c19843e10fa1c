// Reusable per-thread scratch for the filtering-verification hot loop.
//
// Every Matcher::Filter() call used to heap-allocate a fresh FilterData (a
// CandidateSets of per-query-vertex vectors, plus CFL's CPI levels) and every
// enumeration call allocated its visited/mapping arrays — once per
// (query, data-graph) pair, i.e. once per graph in the database scan. A
// MatchWorkspace owns all of that storage and hands it back out call after
// call, so after one warm-up graph the hot loop runs with near-zero heap
// traffic.
//
// Ownership rules:
//   * One workspace per thread. Nothing in here is synchronized.
//   * A FilterData returned by Matcher::Filter(query, data, &ws) is OWNED BY
//     THE WORKSPACE and valid only until the next Filter() call on the same
//     workspace. Engines process one graph at a time, which is exactly that
//     lifetime.
//   * Scratch vectors (mapping/used/order/...) are valid across nested use
//     only as documented at each member; a single Filter+Enumerate pair per
//     graph never conflicts.
//   * Counters are cumulative; callers snapshot them to derive per-query
//     deltas (see QueryStats::ws_filter_hits).
#ifndef SGQ_MATCHING_WORKSPACE_H_
#define SGQ_MATCHING_WORKSPACE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <typeinfo>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "matching/matcher.h"

namespace sgq {

class MatchWorkspace {
 public:
  MatchWorkspace() = default;
  MatchWorkspace(const MatchWorkspace&) = delete;
  MatchWorkspace& operator=(const MatchWorkspace&) = delete;

  // Returns the recycled FilterData of *exact* dynamic type T if the
  // workspace holds one (a hit: all its internal vectors keep their
  // capacity), else allocates a fresh T (a miss). The caller re-initializes
  // contents either way.
  template <typename T>
  T* AcquireFilterData() {
    static_assert(std::is_base_of_v<FilterData, T>);
    if (filter_data_ != nullptr && typeid(*filter_data_) == typeid(T)) {
      ++filter_hits_;
      return static_cast<T*>(filter_data_.get());
    }
    ++filter_misses_;
    auto fresh = std::make_unique<T>();
    T* raw = fresh.get();
    filter_data_ = std::move(fresh);
    return raw;
  }

  // Fallback for matchers without a workspace-aware Filter(): adopts a
  // freshly allocated FilterData so the caller gets workspace lifetime
  // semantics. Always counts as a miss (an allocation happened).
  FilterData* ParkFilterData(std::unique_ptr<FilterData> data) {
    ++filter_misses_;
    filter_data_ = std::move(data);
    return filter_data_.get();
  }

  // --- allocation-reuse counters ------------------------------------------
  // hit  = a Filter() call reused the workspace-owned FilterData;
  // miss = a Filter() call allocated (cold workspace, type change, or a
  //        matcher without a workspace-aware Filter()).
  uint64_t filter_hits() const { return filter_hits_; }
  uint64_t filter_misses() const { return filter_misses_; }
  void ResetCounters() { filter_hits_ = filter_misses_ = 0; }

  // High-water footprint of everything the workspace has retained (the
  // recycled FilterData plus all scratch capacities).
  size_t MemoryBytes() const;

  // --- enumeration scratch -------------------------------------------------
  // Shared by BacktrackOverCandidates and CFL's CPI-driven enumeration; one
  // enumeration runs at a time per workspace.
  std::vector<std::vector<VertexId>> backward_neighbors;  // per matching depth
  std::vector<VertexId> mapping;    // query vertex -> data vertex
  std::vector<uint32_t> phi_index;  // CFL: index of mapping[u] in phi.set(u)
  std::vector<char> placed;         // query-vertex marker (order building)
  std::vector<VertexId> order;      // matching order (JoinBasedOrder output);
                                    // not touched by the backtracking itself

  // Epoch-stamped "data vertex already matched" marker: v is used iff
  // used_stamp[v] == used_epoch. Bumping the epoch (BeginUsedEpoch) clears
  // the whole array in O(1), so per-enumeration setup no longer scales with
  // |V(G)| the way the old `used.assign(NumVertices, 0)` did.
  std::vector<uint32_t> used_stamp;

  // Per-depth Φ(order[depth]) membership rows for the intersection-based
  // extension step, stamped with the same epoch (row d is valid iff
  // phi_stamp_epoch[d] == used_epoch; rows are built lazily the first time
  // a depth actually extends through the densest-operand bitmap path).
  std::vector<std::vector<uint32_t>> phi_stamp;
  std::vector<uint32_t> phi_stamp_epoch;

  // Per-depth local-candidate scratch (intersection outputs, ping-pong when
  // folding 3+ operands). Valid for the duration of one search node at that
  // depth; deeper recursion uses deeper buffers.
  std::vector<std::vector<VertexId>> local_a;
  std::vector<std::vector<VertexId>> local_b;
  // (size, mapped data vertex) pairs while ordering a node's backward
  // adjacency lists smallest-first; consumed before recursing, so one
  // shared buffer serves every depth.
  std::vector<std::pair<uint32_t, VertexId>> adj_by_size;

  // Starts a fresh used/Φ-membership epoch sized for `num_data_vertices`
  // and returns the new epoch value. Grows (never shrinks) the stamp array;
  // on the (theoretical) 2^32 wrap every stamp is wholesale-reset so stale
  // values cannot collide with re-issued epochs.
  uint32_t BeginUsedEpoch(uint32_t num_data_vertices) {
    if (used_stamp.size() < num_data_vertices) {
      used_stamp.resize(num_data_vertices, 0);
    }
    if (++used_epoch_ == 0) {
      std::fill(used_stamp.begin(), used_stamp.end(), 0);
      phi_stamp.clear();
      phi_stamp_epoch.clear();
      used_epoch_ = 1;
    }
    return used_epoch_;
  }

  // VF2 state (the IFV engines' verification loop): reverse data->query
  // mapping plus the terminal-set counters; `mapping` above doubles as the
  // query->data core.
  std::vector<VertexId> reverse_mapping;
  std::vector<uint32_t> term_query;
  std::vector<uint32_t> term_data;

  // --- filtering scratch ---------------------------------------------------
  // GraphQL's membership bitmap.
  std::vector<uint8_t> byte_matrix;
  // CFL: visit-order positions, backward-prune counters, candidate-index map.
  std::vector<uint32_t> order_pos;
  std::vector<uint32_t> vertex_counts;
  std::vector<uint32_t> index_of;
  // Pre-filtered label-bucket slice from the vertex candidate index (CFL's
  // top-down pass on indexed data graphs); valid within one query vertex.
  std::vector<VertexId> scratch_candidates;

 private:
  std::unique_ptr<FilterData> filter_data_;
  uint64_t filter_hits_ = 0;
  uint64_t filter_misses_ = 0;
  uint32_t used_epoch_ = 0;
};

}  // namespace sgq

#endif  // SGQ_MATCHING_WORKSPACE_H_
