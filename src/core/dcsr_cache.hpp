// The GPU-side cache of frequent vertices (paper Sec. V-B).
//
// The neighbor lists of the selected vertices are packed in a Doubly
// Compressed Sparse Row (DCSR) blob with three arrays:
//   rowidx — the selected vertex ids, ascending (binary-searched by the
//            kernel before every list access);
//   rowptr — per selected vertex, TWO offsets into colidx: the start of the
//            original list and the start of the appended new neighbors
//            (-1 when the vertex gained none this batch); a final sentinel
//            entry holds the length of colidx;
//   colidx — the stored adjacency entries, copied verbatim after tombstoning
//            (step 3), so deleted neighbors stay marked and new neighbors
//            sit at the tail of each list.
//
// The arrays' sizes are known up front, so the blob is one host allocation
// and one DMA transaction, exactly as in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/device.hpp"
#include "graph/dynamic_graph.hpp"

namespace gcsm {

class DcsrCache {
 public:
  DcsrCache() = default;

  // Packs the lists of `vertices` (any order; deduplicated and sorted
  // internally) from `graph` and DMA-transfers the blob into `device`
  // memory, charging `counters`. Vertices whose lists would overflow
  // `byte_budget` are dropped (least-priority last: callers pass vertices in
  // descending priority). Throws DeviceOomError only if even the empty blob
  // does not fit. Exception-safe: if the allocation, the DMA, or the armed
  // cache.build fault site throws, the cache is left cleared (empty and
  // valid), never half-built.
  void build(const DynamicGraph& graph,
             const std::vector<VertexId>& vertices,
             std::uint64_t byte_budget, gpusim::Device& device,
             gpusim::TrafficCounters& counters);

  void clear() { *this = DcsrCache(); }

  bool empty() const { return row_count_ == 0; }
  std::uint32_t num_cached() const { return row_count_; }
  std::uint64_t blob_bytes() const { return blob_bytes_; }

  // Kernel-side lookup: binary search on rowidx. Returns the cached view of
  // v (pointers into device memory) or nullopt on miss. `search_steps`
  // receives the number of binary-search probes (device-memory accounting).
  std::optional<NeighborView> lookup(VertexId v, ViewMode mode,
                                     std::uint32_t& search_steps) const;

  // Checks the DCSR invariants (docs/ANALYSIS.md): rowidx strictly
  // ascending, rowptr offsets monotone and within the colidx extent, the
  // sentinel equal to the colidx length, new_begin either -1 or inside its
  // row, every row's segments sorted, and the blob byte accounting exact.
  // When `graph` is non-null (valid until the graph reorganizes under the
  // cache), additionally checks each cached list is a verbatim copy of the
  // graph's stored list. Throws CheckFailure on the first violation.
  void validate(const DynamicGraph* graph = nullptr) const;

 private:
  struct RowPtr {
    std::int64_t begin = 0;      // start of the list in colidx
    std::int64_t new_begin = 0;  // start of appended entries, or -1
  };

  // The packed blob plus its typed array views.
  gpusim::DeviceBuffer blob_;
  const VertexId* rowidx_ = nullptr;
  const RowPtr* rowptr_ = nullptr;  // row_count_ + 1 entries (sentinel)
  const VertexId* colidx_ = nullptr;
  std::uint32_t row_count_ = 0;
  std::uint64_t blob_bytes_ = 0;
};

}  // namespace gcsm
