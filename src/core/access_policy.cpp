#include "core/access_policy.hpp"

namespace gcsm {
namespace {

std::uint64_t view_bytes(const NeighborView& v) {
  return (static_cast<std::uint64_t>(v.prefix.size) + v.appended.size) *
         sizeof(VertexId);
}

std::uint64_t lines_for(const NeighborSeg& seg, std::uint32_t line_bytes) {
  if (seg.size == 0) return 0;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(seg.size) * sizeof(VertexId);
  return (bytes + line_bytes - 1) / line_bytes +
         ((reinterpret_cast<std::uintptr_t>(seg.data) % line_bytes) != 0
              ? 1
              : 0);
}

// A zero-copy read of the whole view: its cache lines and useful bytes.
void charge_zero_copy(const NeighborView& view, std::uint32_t line_bytes,
                      gpusim::Traffic& traffic) {
  traffic.zero_copy_lines +=
      lines_for(view.prefix, line_bytes) + lines_for(view.appended, line_bytes);
  traffic.zero_copy_bytes += view_bytes(view);
}

}  // namespace

NeighborView HostPolicy::fetch(VertexId v, ViewMode mode,
                               gpusim::Traffic& traffic) {
  const NeighborView view = graph_.view(v, mode);
  traffic.host_ops += view.size_bound();
  traffic.host_bytes += view_bytes(view);
  return view;
}

NeighborView ZeroCopyPolicy::fetch(VertexId v, ViewMode mode,
                                   gpusim::Traffic& traffic) {
  const NeighborView view = graph_.view(v, mode);
  charge_zero_copy(view, line_bytes_, traffic);
  return view;
}

NeighborView UnifiedMemoryPolicy::fetch(VertexId v, ViewMode mode,
                                        gpusim::Traffic& traffic) {
  const NeighborView view = graph_.view(v, mode);
  if (view.prefix.size > 0) {
    pages_.access(view.prefix.data,
                  view.prefix.size * sizeof(VertexId), traffic);
  }
  if (view.appended.size > 0) {
    pages_.access(view.appended.data,
                  view.appended.size * sizeof(VertexId), traffic);
  }
  return view;
}

NeighborView CachedPolicy::fetch(VertexId v, ViewMode mode,
                                 gpusim::Traffic& traffic) {
  std::uint32_t steps = 0;
  if (auto cached = cache_.lookup(v, mode, steps)) {
    // Binary-search probes plus the list itself: device-memory traffic.
    traffic.device_bytes += steps * sizeof(VertexId) + view_bytes(*cached);
    ++traffic.cache_hits;
    return *cached;
  }
  traffic.device_bytes += steps * sizeof(VertexId);
  ++traffic.cache_misses;
  // Miss: the kernel takes the vertex's device-mapped host address (the
  // pDevice array of Sec. V-A) and reads over PCIe by zero-copy.
  const NeighborView view = graph_.view(v, mode);
  charge_zero_copy(view, line_bytes_, traffic);
  return view;
}

NeighborView CountingPolicy::fetch(VertexId v, ViewMode mode,
                                   gpusim::Traffic& traffic) {
  const NeighborView view = graph_.view(v, mode);
  traffic.host_ops += view.size_bound();
  traffic.host_bytes += view_bytes(view);
  counts_[static_cast<std::size_t>(v)].fetch_add(1,
                                                 std::memory_order_relaxed);
  return view;
}

std::vector<std::uint64_t> CountingPolicy::access_counts() const {
  std::vector<std::uint64_t> out(
      static_cast<std::size_t>(graph_.num_vertices()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace gcsm
