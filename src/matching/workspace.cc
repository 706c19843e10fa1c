#include "matching/workspace.h"

namespace sgq {

size_t MatchWorkspace::MemoryBytes() const {
  size_t bytes = 0;
  if (filter_data_ != nullptr) bytes += filter_data_->RetainedBytes();
  bytes += backward_neighbors.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& v : backward_neighbors) {
    bytes += v.capacity() * sizeof(VertexId);
  }
  bytes += mapping.capacity() * sizeof(VertexId);
  bytes += phi_index.capacity() * sizeof(uint32_t);
  bytes += used_stamp.capacity() * sizeof(uint32_t) + placed.capacity();
  bytes += order.capacity() * sizeof(VertexId);
  bytes += phi_stamp.capacity() * sizeof(std::vector<uint32_t>);
  for (const auto& row : phi_stamp) bytes += row.capacity() * sizeof(uint32_t);
  bytes += phi_stamp_epoch.capacity() * sizeof(uint32_t);
  bytes += local_a.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& v : local_a) bytes += v.capacity() * sizeof(VertexId);
  bytes += local_b.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& v : local_b) bytes += v.capacity() * sizeof(VertexId);
  bytes += adj_by_size.capacity() * sizeof(std::pair<uint32_t, VertexId>);
  bytes += reverse_mapping.capacity() * sizeof(VertexId);
  bytes += term_query.capacity() * sizeof(uint32_t);
  bytes += term_data.capacity() * sizeof(uint32_t);
  bytes += byte_matrix.capacity();
  bytes += order_pos.capacity() * sizeof(uint32_t);
  bytes += (hit_bits.capacity() + acc_bits.capacity()) * sizeof(uint64_t);
  bytes += index_of.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace sgq
