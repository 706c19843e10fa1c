// The common interface of preprocessing-enumeration subgraph matching
// algorithms (Section II-B2), split exactly the way the paper's vcFV
// framework needs it (Algorithm 2):
//   Filter()    — the preprocessing phase: build candidate vertex sets Φ
//                 (plus any algorithm-specific auxiliary structure, e.g.
//                 CFL's CPI);
//   Enumerate() — the enumeration phase: backtracking search; with
//                 limit == 1 this is the paper's Verify().
#ifndef SGQ_MATCHING_MATCHER_H_
#define SGQ_MATCHING_MATCHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "matching/candidate_space.h"
#include "util/deadline.h"

namespace sgq {

class MatchWorkspace;

// Called for every embedding found: mapping[u] is the data vertex matched to
// query vertex u. Returns whether to keep enumerating: false unwinds the
// search immediately (result.sink_stopped set) — the hook result sinks use
// to stop the matcher itself once a downstream LIMIT is satisfied, instead
// of truncating a fully-materialized batch afterwards.
using EmbeddingCallback = std::function<bool(const std::vector<VertexId>&)>;

// Result of the preprocessing phase. Concrete matchers subclass this to
// attach auxiliary structures (CFL's CPI); the candidate sets are always
// exposed for metrics and property tests.
struct FilterData {
  virtual ~FilterData() = default;

  CandidateSets phi;

  // True iff all Φ(u) are non-empty; a false value filters the data graph
  // out without verification (Proposition III.1).
  bool Passed() const { return phi.AllNonEmpty(); }

  // Footprint of the auxiliary structures (paper's memory-cost metric):
  // what this Filter() call built, counted by element, so a FilterData
  // recycled through a MatchWorkspace reports what a fresh one would.
  size_t MemoryBytes() const { return Footprint(/*retained=*/false); }
  // Heap capacity held, including buffers kept from earlier calls.
  size_t RetainedBytes() const { return Footprint(/*retained=*/true); }

 protected:
  // Subclasses add their auxiliary structures (see VectorBytes).
  virtual size_t Footprint(bool retained) const {
    return phi.MemoryBytes(retained);
  }
};

// Counters reported by one Enumerate() call. The intersect_* fields account
// the adaptive set-intersection kernels of the local-candidate extension
// step (util/intersect.h): calls = adaptive dispatches, and the
// merge/gallop/simd split records which kernel each dispatch resolved to.
// local_candidates sums the local candidate-set sizes the intersections
// produced (the per-search-node extension frontier).
struct EnumerateResult {
  uint64_t embeddings = 0;       // found (up to the limit)
  uint64_t recursion_calls = 0;  // search-tree nodes visited
  bool aborted = false;          // deadline expired mid-search
  bool sink_stopped = false;     // the embedding callback returned false
  uint64_t intersect_calls = 0;
  uint64_t intersect_merge = 0;
  uint64_t intersect_gallop = 0;
  uint64_t intersect_simd = 0;
  uint64_t local_candidates = 0;

  void AddCounters(const EnumerateResult& other) {
    recursion_calls += other.recursion_calls;
    intersect_calls += other.intersect_calls;
    intersect_merge += other.intersect_merge;
    intersect_gallop += other.intersect_gallop;
    intersect_simd += other.intersect_simd;
    local_candidates += other.local_candidates;
  }
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  virtual const char* name() const = 0;

  // Preprocessing phase. The query must be connected and non-empty.
  virtual std::unique_ptr<FilterData> Filter(const Graph& query,
                                             const Graph& data) const = 0;

  // Workspace variant of the preprocessing phase: the FilterData is owned by
  // `ws` (valid until the next Filter() on the same workspace) and its
  // buffers are recycled across calls, so a thread scanning many data graphs
  // pays the candidate-set allocations once. The base implementation falls
  // back to the allocating Filter() and parks the result in the workspace;
  // GraphQL/CFL/CFQL override it with true reuse.
  virtual FilterData* Filter(const Graph& query, const Graph& data,
                             MatchWorkspace* ws) const;

  // Enumeration phase over a FilterData produced by this matcher's Filter().
  // Stops after `limit` embeddings or when the deadline expires.
  virtual EnumerateResult Enumerate(const Graph& query, const Graph& data,
                                    const FilterData& data_aux, uint64_t limit,
                                    DeadlineChecker* checker,
                                    const EmbeddingCallback& callback =
                                        nullptr) const = 0;

  // Workspace variant of the enumeration phase: visited/mapping/order
  // scratch comes from `ws` instead of per-call allocations. The base
  // implementation ignores the workspace.
  virtual EnumerateResult Enumerate(const Graph& query, const Graph& data,
                                    const FilterData& data_aux, uint64_t limit,
                                    DeadlineChecker* checker,
                                    MatchWorkspace* ws,
                                    const EmbeddingCallback& callback =
                                        nullptr) const;

  // The subgraph isomorphism test: filter + first-match enumeration.
  // Returns 1 if q ⊆ g, 0 if not, -1 on deadline expiry. The workspace
  // overload reuses `ws` for both phases.
  int Contains(const Graph& query, const Graph& data,
               DeadlineChecker* checker) const;
  int Contains(const Graph& query, const Graph& data, DeadlineChecker* checker,
               MatchWorkspace* ws) const;
};

// How the backtracking computes each search node's extension frontier.
//   kProbe     — the legacy path: scan all of Φ(u), probing data.HasEdge for
//                every backward neighbor per candidate.
//   kIntersect — compute the local candidate set explicitly: intersect the
//                mapped backward neighbors' adjacency lists (smallest first,
//                short-circuiting on empty) and filter through a Φ(u)
//                membership row; Φ(u) joins the list intersection instead
//                whenever it is the smallest operand.
//   kAdaptive  — kIntersect, but falling back to kProbe per node when the
//                probe scan is predicted cheaper (tiny Φ(u)). The default.
// All three enumerate candidates in the same ascending order, so embedding
// counts, embedding order, and recursion_calls are identical across paths.
enum class ExtensionPath { kAdaptive, kProbe, kIntersect };

// Process-wide default used when BacktrackOverCandidates is called without
// an explicit path — a knob for benchmarks and determinism tests comparing
// the legacy and intersection paths through unmodified engines.
void SetDefaultExtensionPath(ExtensionPath path);
ExtensionPath DefaultExtensionPath();

// Generic connectivity-aware backtracking over candidate sets: at depth i
// the query vertex order[i] is matched against its candidates, checking
// injectivity and all edges to already-matched query vertices. This is the
// enumeration procedure of GraphQL (and of CFQL); CFL uses its own CPI-aware
// variant.
//
// `order` must start at an arbitrary vertex and keep the prefix connected
// (every later vertex has an earlier neighbor).
//
// With a workspace the mapping/visited/backward-neighbor scratch is drawn
// from `ws` (everything except ws->order, which may hold `order` itself);
// without one it is allocated per call as before.
EnumerateResult BacktrackOverCandidates(const Graph& query, const Graph& data,
                                        const CandidateSets& phi,
                                        const std::vector<VertexId>& order,
                                        uint64_t limit,
                                        DeadlineChecker* checker,
                                        const EmbeddingCallback& callback,
                                        MatchWorkspace* ws = nullptr);

// Explicit-path overload; the default-argument form above uses
// DefaultExtensionPath().
EnumerateResult BacktrackOverCandidates(const Graph& query, const Graph& data,
                                        const CandidateSets& phi,
                                        const std::vector<VertexId>& order,
                                        uint64_t limit,
                                        DeadlineChecker* checker,
                                        const EmbeddingCallback& callback,
                                        MatchWorkspace* ws,
                                        ExtensionPath path);

// The join-based ordering of GraphQL: start from the query vertex with the
// fewest candidates; repeatedly append the neighbor of the selected set with
// the fewest candidates.
std::vector<VertexId> JoinBasedOrder(const Graph& query,
                                     const CandidateSets& phi);

// Workspace variant: writes the order into ws->order (returned by
// reference; valid until the next call on the same workspace).
const std::vector<VertexId>& JoinBasedOrder(const Graph& query,
                                            const CandidateSets& phi,
                                            MatchWorkspace* ws);

}  // namespace sgq

#endif  // SGQ_MATCHING_MATCHER_H_
