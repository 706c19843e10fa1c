#include "index/vertex_candidate_index.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace sgq {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t VertexCandidateIndex::LabelBit(Label l) {
  // Dense small label universes (the common case) get collision-free bits;
  // larger ones hash. Both sides of every comparison use this same mapping,
  // so collisions only cost filter precision, never correctness.
  const uint32_t bit = l < 64 ? l : static_cast<uint32_t>(SplitMix64(l) & 63);
  return uint64_t{1} << bit;
}

uint64_t VertexCandidateIndex::SignatureOf(std::span<const Label> labels) {
  uint64_t sig = 0;
  for (Label l : labels) sig |= LabelBit(l);
  return sig;
}

std::shared_ptr<const VertexCandidateIndex> VertexCandidateIndex::Build(
    const Graph& g) {
  auto index = std::shared_ptr<VertexCandidateIndex>(
      new VertexCandidateIndex());
  const uint32_t n = g.NumVertices();

  // Distinct labels, ascending (mirrors the graph's own label index).
  std::vector<Label>& values = index->label_values_;
  values.reserve(g.NumDistinctLabels());
  {
    std::vector<Label> all(n);
    for (VertexId v = 0; v < n; ++v) all[v] = g.label(v);
    std::sort(all.begin(), all.end());
    for (size_t i = 0; i < all.size(); ++i) {
      if (i == 0 || all[i] != all[i - 1]) values.push_back(all[i]);
    }
  }
  const size_t num_slots = values.size();
  auto slot_of = [&](Label l) {
    return static_cast<size_t>(
        std::lower_bound(values.begin(), values.end(), l) - values.begin());
  };

  index->bucket_offsets_.assign(num_slots + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    ++index->bucket_offsets_[slot_of(g.label(v)) + 1];
  }
  for (size_t s = 0; s < num_slots; ++s) {
    index->bucket_offsets_[s + 1] += index->bucket_offsets_[s];
  }

  index->ids_.resize(n);
  {
    std::vector<uint32_t> cursor(index->bucket_offsets_.begin(),
                                 index->bucket_offsets_.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      index->ids_[cursor[slot_of(g.label(v))]++] = v;
    }
  }
  // Sort each bucket by (degree, id): the degree ordering gives the binary-
  // searchable LDF slice, the id tiebreak keeps the order deterministic.
  for (size_t s = 0; s < num_slots; ++s) {
    auto* begin = index->ids_.data() + index->bucket_offsets_[s];
    auto* end = index->ids_.data() + index->bucket_offsets_[s + 1];
    std::sort(begin, end, [&](VertexId a, VertexId b) {
      const uint32_t da = g.degree(a), db = g.degree(b);
      return da != db ? da < db : a < b;
    });
  }

  index->degrees_.resize(n);
  index->signatures_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId v = index->ids_[i];
    index->degrees_[i] = g.degree(v);
    index->signatures_[i] = SignatureOf(g.NeighborLabels(v));
  }
  return index;
}

size_t VertexCandidateIndex::SlotOf(Label l) const {
  const auto it =
      std::lower_bound(label_values_.begin(), label_values_.end(), l);
  if (it == label_values_.end() || *it != l) return SIZE_MAX;
  return static_cast<size_t>(it - label_values_.begin());
}

std::pair<uint32_t, uint32_t> VertexCandidateIndex::DegreeSlice(
    Label l, uint32_t min_degree) const {
  const size_t slot = SlotOf(l);
  if (slot == SIZE_MAX) return {0, 0};
  const auto begin = degrees_.begin() + bucket_offsets_[slot];
  const auto end = degrees_.begin() + bucket_offsets_[slot + 1];
  return {static_cast<uint32_t>(std::lower_bound(begin, end, min_degree) -
                                degrees_.begin()),
          static_cast<uint32_t>(end - degrees_.begin())};
}

uint32_t VertexCandidateIndex::CountWithLabelDegree(
    Label l, uint32_t min_degree) const {
  const auto [lo, end] = DegreeSlice(l, min_degree);
  return end - lo;
}

uint32_t VertexCandidateIndex::BucketSize(Label l) const {
  const size_t slot = SlotOf(l);
  if (slot == SIZE_MAX) return 0;
  return bucket_offsets_[slot + 1] - bucket_offsets_[slot];
}

size_t VertexCandidateIndex::MemoryBytes() const {
  return label_values_.capacity() * sizeof(Label) +
         bucket_offsets_.capacity() * sizeof(uint32_t) +
         ids_.capacity() * sizeof(VertexId) +
         degrees_.capacity() * sizeof(uint32_t) +
         signatures_.capacity() * sizeof(uint64_t);
}

namespace {

// Resolves the SGQ_CANDIDATE_INDEX override against the configured
// threshold; UINT32_MAX means "attach nothing".
uint32_t ResolvedMinVertices(uint32_t min_vertices) {
  const char* env = std::getenv("SGQ_CANDIDATE_INDEX");
  if (env != nullptr) {
    if (std::strcmp(env, "off") == 0) return UINT32_MAX;
    if (std::strcmp(env, "on") == 0) return 0;
  }
  return min_vertices;
}

}  // namespace

size_t AttachCandidateIndexes(GraphDatabase* db, uint32_t min_vertices) {
  min_vertices = ResolvedMinVertices(min_vertices);
  if (min_vertices == UINT32_MAX) return 0;
  size_t indexed = 0;
  for (GraphId id = 0; id < db->size(); ++id) {
    Graph& g = db->mutable_graph(id);
    if (g.NumVertices() < min_vertices) continue;
    g.SetCandidateIndex(VertexCandidateIndex::Build(g));
    ++indexed;
  }
  return indexed;
}

bool MaybeAttachCandidateIndex(Graph* g, uint32_t min_vertices) {
  min_vertices = ResolvedMinVertices(min_vertices);
  if (min_vertices == UINT32_MAX || g->NumVertices() < min_vertices) {
    return false;
  }
  g->SetCandidateIndex(VertexCandidateIndex::Build(*g));
  return true;
}

}  // namespace sgq
