#include "core/dcsr_cache.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace gcsm {

void DcsrCache::build(const DynamicGraph& graph,
                      const std::vector<VertexId>& vertices,
                      std::uint64_t byte_budget, gpusim::Device& device,
                      gpusim::TrafficCounters& counters) {
  clear();

  static auto& m_builds = metrics::Registry::global().counter(metric::kCacheBuilds);
  static auto& m_failures =
      metrics::Registry::global().counter(metric::kCacheBuildFailures);
  static auto& m_vertices =
      metrics::Registry::global().counter(metric::kCacheBuiltVertices);
  static auto& m_bytes =
      metrics::Registry::global().counter(metric::kCacheBuiltBytes);
  static auto& m_blob_gauge =
      metrics::Registry::global().gauge(metric::kCacheBlobBytes);
  // The span shares the canonical fault-site name so a trace of a faulted
  // run lines up with the injector's observations (and so gcsm_lint has a
  // single spelling to hold the tree to).
  const trace::Span span(fault_site::kCacheBuild);

  if (FaultInjector* faults = device.fault_injector();
      faults != nullptr && faults->fires(fault_site::kCacheBuild)) {
    m_failures.add();
    throw Error(ErrorCode::kCacheBuild,
                "injected fault: DCSR cache build aborted (transient)");
  }

  // Respect the byte budget in the caller's priority order, then sort the
  // survivors so rowidx is binary-searchable.
  std::vector<VertexId> selected;
  selected.reserve(vertices.size());
  std::uint64_t colidx_bytes = 0;
  for (const VertexId v : vertices) {
    const std::uint64_t lb = graph.list_bytes(v);
    const std::uint64_t row_overhead = sizeof(VertexId) + sizeof(RowPtr);
    if (colidx_bytes + lb +
            (selected.size() + 2) * row_overhead >
        byte_budget) {
      continue;
    }
    selected.push_back(v);
    colidx_bytes += lb;
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());

  // An empty hot set (every update quarantined, or a budget too small for a
  // single row) leaves the cache cleared instead of packing a sentinel-only
  // blob: validate() pins "no rows" to "no arrays, no blob".
  if (selected.empty()) {
    m_builds.add();
    m_blob_gauge.set(0.0);
    return;
  }

  // Everything below works on locals; the members are assigned only once
  // the allocation and the DMA have both succeeded, so a throw from either
  // leaves the cache in its cleared (valid, empty) state.
  const auto row_count = static_cast<std::uint32_t>(selected.size());
  const std::uint64_t rowptr_bytes =
      (static_cast<std::uint64_t>(row_count) + 1) * sizeof(RowPtr);
  const std::uint64_t rowidx_bytes =
      static_cast<std::uint64_t>(row_count) * sizeof(VertexId);
  // Recompute colidx_bytes over the deduplicated set.
  colidx_bytes = 0;
  for (const VertexId v : selected) colidx_bytes += graph.list_bytes(v);
  const std::uint64_t blob_bytes = rowptr_bytes + rowidx_bytes + colidx_bytes;

  // Host staging buffer: one allocation, then one DMA (paper Sec. V-B).
  std::vector<std::byte> staging(blob_bytes);
  auto* rowptr = reinterpret_cast<RowPtr*>(staging.data());
  auto* rowidx = reinterpret_cast<VertexId*>(staging.data() + rowptr_bytes);
  auto* colidx = reinterpret_cast<VertexId*>(staging.data() + rowptr_bytes +
                                             rowidx_bytes);

  std::int64_t cursor = 0;
  for (std::uint32_t i = 0; i < row_count; ++i) {
    const VertexId v = selected[i];
    rowidx[i] = v;
    const NeighborView view = graph.view(v, ViewMode::kNew);
    rowptr[i].begin = cursor;
    rowptr[i].new_begin =
        view.appended.size > 0 ? cursor + view.prefix.size : -1;
    std::memcpy(colidx + cursor, view.prefix.data,
                view.prefix.size * sizeof(VertexId));
    cursor += view.prefix.size;
    std::memcpy(colidx + cursor, view.appended.data,
                view.appended.size * sizeof(VertexId));
    cursor += view.appended.size;
  }
  rowptr[row_count].begin = cursor;  // sentinel: length of colidx
  rowptr[row_count].new_begin = -1;

  // alloc / DMA throw on (injected) device failure; count those as build
  // failures too so the metric mirrors every aborted pack.
  gpusim::DeviceBuffer blob;
  try {
    blob = device.alloc(blob_bytes);
    device.dma_to_device(blob, staging.data(), blob_bytes, counters);
  } catch (...) {
    m_failures.add();
    throw;
  }

  m_builds.add();
  m_vertices.add(row_count);
  m_bytes.add(blob_bytes);
  m_blob_gauge.set(static_cast<double>(blob_bytes));

  blob_ = std::move(blob);
  row_count_ = row_count;
  blob_bytes_ = blob_bytes;
  rowptr_ = reinterpret_cast<const RowPtr*>(blob_.data());
  rowidx_ = reinterpret_cast<const VertexId*>(blob_.data() + rowptr_bytes);
  colidx_ = reinterpret_cast<const VertexId*>(blob_.data() + rowptr_bytes +
                                              rowidx_bytes);
}

std::optional<NeighborView> DcsrCache::lookup(
    VertexId v, ViewMode mode, std::uint32_t& search_steps) const {
  search_steps = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = row_count_;
  while (lo < hi) {
    ++search_steps;
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (rowidx_[mid] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= row_count_ || rowidx_[lo] != v) return std::nullopt;

  const std::int64_t begin = rowptr_[lo].begin;
  const std::int64_t new_begin = rowptr_[lo].new_begin;
  const std::int64_t end = rowptr_[lo + 1].begin;
  const std::int64_t prefix_end = new_begin < 0 ? end : new_begin;
  GCSM_ASSERT(begin <= prefix_end && prefix_end <= end,
              "DCSR row offsets out of order");

  NeighborView view;
  view.mode = mode;
  view.prefix = {colidx_ + begin,
                 static_cast<std::uint32_t>(prefix_end - begin)};
  if (mode == ViewMode::kNew && new_begin >= 0) {
    view.appended = {colidx_ + new_begin,
                     static_cast<std::uint32_t>(end - new_begin)};
  }
  return view;
}

void DcsrCache::validate(const DynamicGraph* graph) const {
  if (row_count_ == 0) {
    GCSM_CHECK(rowidx_ == nullptr && rowptr_ == nullptr &&
                   colidx_ == nullptr,
               "empty cache holds dangling array pointers");
    GCSM_CHECK(blob_bytes_ == 0, "empty cache reports a non-zero blob");
    return;
  }

  GCSM_CHECK(blob_.valid(), "cache rows without a device blob");
  const std::uint64_t rowptr_bytes =
      (static_cast<std::uint64_t>(row_count_) + 1) * sizeof(RowPtr);
  const std::uint64_t rowidx_bytes =
      static_cast<std::uint64_t>(row_count_) * sizeof(VertexId);
  GCSM_CHECK(blob_bytes_ == blob_.size(),
             "blob byte counter disagrees with the device buffer");
  GCSM_CHECK(blob_bytes_ >= rowptr_bytes + rowidx_bytes,
             "blob smaller than its own header arrays");
  const auto colidx_len = static_cast<std::int64_t>(
      (blob_bytes_ - rowptr_bytes - rowidx_bytes) / sizeof(VertexId));

  // The three arrays must tile the blob in rowptr / rowidx / colidx order.
  const auto* base = blob_.data();
  GCSM_CHECK(reinterpret_cast<const std::byte*>(rowptr_) == base,
             "rowptr does not start the blob");
  GCSM_CHECK(reinterpret_cast<const std::byte*>(rowidx_) ==
                 base + rowptr_bytes,
             "rowidx not contiguous after rowptr");
  GCSM_CHECK(reinterpret_cast<const std::byte*>(colidx_) ==
                 base + rowptr_bytes + rowidx_bytes,
             "colidx not contiguous after rowidx");

  GCSM_CHECK(rowptr_[0].begin == 0, "first row does not start at offset 0");
  GCSM_CHECK(rowptr_[row_count_].begin == colidx_len,
             "rowptr sentinel does not equal the colidx length");
  GCSM_CHECK(rowptr_[row_count_].new_begin == -1,
             "rowptr sentinel carries an appended offset");

  for (std::uint32_t i = 0; i < row_count_; ++i) {
    const std::string ctx = "cached row " + std::to_string(i);
    if (i > 0) {
      GCSM_CHECK(rowidx_[i - 1] < rowidx_[i],
                 ctx + ": rowidx not strictly ascending");
    }
    const std::int64_t begin = rowptr_[i].begin;
    const std::int64_t end = rowptr_[i + 1].begin;
    const std::int64_t new_begin = rowptr_[i].new_begin;
    GCSM_CHECK(begin <= end, ctx + ": row offsets not monotone");
    GCSM_CHECK(begin >= 0 && end <= colidx_len,
               ctx + ": row offsets outside the colidx extent");
    const std::int64_t prefix_end = new_begin < 0 ? end : new_begin;
    if (new_begin >= 0) {
      GCSM_CHECK(begin <= new_begin && new_begin <= end,
                 ctx + ": appended offset outside the row");
      // A non-negative new_begin promises appended entries exist.
      GCSM_CHECK(new_begin < end, ctx + ": appended offset marks an empty run");
    }
    // Prefix sorted by decoded id, appended run sorted and live — the same
    // layout DynamicGraph::validate() enforces on the source lists.
    for (std::int64_t j = begin + 1; j < prefix_end; ++j) {
      GCSM_CHECK(
          decode_neighbor(colidx_[j - 1]) < decode_neighbor(colidx_[j]),
          ctx + ": prefix not strictly sorted by decoded id");
    }
    for (std::int64_t j = prefix_end; j < end; ++j) {
      GCSM_CHECK(!is_deleted_neighbor(colidx_[j]),
                 ctx + ": tombstone in appended run");
      if (j > prefix_end) {
        GCSM_CHECK(colidx_[j - 1] < colidx_[j],
                   ctx + ": appended run not strictly sorted");
      }
    }

    if (graph != nullptr) {
      const VertexId v = rowidx_[i];
      GCSM_CHECK(v >= 0 && v < graph->num_vertices(),
                 ctx + ": cached vertex not in the graph");
      const NeighborView src = graph->view(v, ViewMode::kNew);
      GCSM_CHECK(static_cast<std::int64_t>(src.prefix.size) ==
                     prefix_end - begin,
                 ctx + ": cached prefix length differs from the graph");
      GCSM_CHECK(static_cast<std::int64_t>(src.appended.size) ==
                     end - prefix_end,
                 ctx + ": cached appended length differs from the graph");
      GCSM_CHECK(std::memcmp(colidx_ + begin, src.prefix.data,
                             src.prefix.size * sizeof(VertexId)) == 0,
                 ctx + ": cached prefix is not a verbatim copy");
      GCSM_CHECK(std::memcmp(colidx_ + prefix_end, src.appended.data,
                             src.appended.size * sizeof(VertexId)) == 0,
                 ctx + ": cached appended run is not a verbatim copy");
    }
  }
}

}  // namespace gcsm
