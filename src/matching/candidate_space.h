// Candidate vertex sets Φ (Definition III.1) and the label-degree-frequency
// primitives all preprocessing-enumeration matchers share.
#ifndef SGQ_MATCHING_CANDIDATE_SPACE_H_
#define SGQ_MATCHING_CANDIDATE_SPACE_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace sgq {

// Bytes a vector contributes to a footprint: its elements, or with
// `retained` its heap capacity. Structures recycled through a
// MatchWorkspace keep capacity from earlier calls, so only the element
// count describes what one call built.
template <typename T>
size_t VectorBytes(const std::vector<T>& v, bool retained) {
  return (retained ? v.capacity() : v.size()) * sizeof(T);
}

// Φ: one sorted candidate vertex list per query vertex. A complete Φ
// (Definition III.1) contains, for every query vertex u, every data vertex v
// that appears as (u, v) in some subgraph isomorphism; emptiness of any
// Φ(u) therefore proves non-containment (Proposition III.1).
class CandidateSets {
 public:
  CandidateSets() = default;
  explicit CandidateSets(uint32_t num_query_vertices)
      : sets_(num_query_vertices) {}

  uint32_t NumQueryVertices() const {
    return static_cast<uint32_t>(sets_.size());
  }

  // Re-shapes to `num_query_vertices` empty sets without releasing the
  // per-set heap buffers, so a recycled CandidateSets (MatchWorkspace) fills
  // up allocation-free once warm.
  void ResetForReuse(uint32_t num_query_vertices);

  std::vector<VertexId>& mutable_set(VertexId u) { return sets_[u]; }
  const std::vector<VertexId>& set(VertexId u) const { return sets_[u]; }

  // Binary search; candidate lists are kept sorted.
  bool Contains(VertexId u, VertexId v) const;

  // True iff every query vertex has at least one candidate (the vcFV
  // filtering test, Algorithm 2 line 5).
  bool AllNonEmpty() const;

  // Sum of candidate-list sizes (the paper's memory-cost metric counts the
  // auxiliary structures; see MemoryBytes).
  uint64_t TotalCandidates() const;

  // Bytes of the candidate lists as built; `retained` counts the heap
  // capacity held instead (see VectorBytes).
  size_t MemoryBytes(bool retained = false) const;

 private:
  std::vector<std::vector<VertexId>> sets_;
};

// The LDF+NLF candidate generator: data vertices with the query vertex's
// label, at least its degree, and a neighbor-label multiset containing the
// query vertex's (the "neighborhood profile" of GraphQL). `use_nlf` toggles
// the profile check (kept as an ablation knob).
std::vector<VertexId> LdfNlfCandidates(const Graph& query, const Graph& data,
                                       VertexId u, bool use_nlf);

// Allocation-free variant: clears `out` (keeping its capacity) and fills it
// with the LDF+NLF candidates.
void LdfNlfCandidatesInto(const Graph& query, const Graph& data, VertexId u,
                          bool use_nlf, std::vector<VertexId>* out);

// True iff data vertex v passes LDF(+NLF) for query vertex u.
bool PassesLdfNlf(const Graph& query, const Graph& data, VertexId u,
                  VertexId v, bool use_nlf);

// The degree + neighbor-label checks alone, for callers that already scanned
// VerticesWithLabel (the label test is then vacuous).
bool PassesDegreeNlf(const Graph& query, const Graph& data, VertexId u,
                     VertexId v, bool use_nlf);

}  // namespace sgq

#endif  // SGQ_MATCHING_CANDIDATE_SPACE_H_
