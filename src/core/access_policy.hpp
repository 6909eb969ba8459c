// Access policies: how a matching kernel obtains neighbor lists, and what
// interconnect traffic that costs.
//
// All engines share one enumeration core; a policy is the ONLY difference
// between GCSM and the paper's baselines (mirroring the paper's fairness
// rule that every GPU version uses the same STMatch-derived kernel):
//
//   HostPolicy         — the CPU baseline: plain host reads.
//   ZeroCopyPolicy     — baseline ZP: every list is read from pinned host
//                        memory in 128-B cache lines.
//   UnifiedMemoryPolicy— baseline UM: every access goes through a 4-KiB
//                        LRU page cache; misses are page faults.
//   CachedPolicy       — GCSM and Naive: look the vertex up in a DCSR cache
//                        in device memory, fall back to zero-copy on miss.
//                        (VSGM reuses this with a k-hop cache that never
//                        misses.)
#pragma once

#include <memory>

#include "core/dcsr_cache.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/page_cache.hpp"
#include "graph/dynamic_graph.hpp"

namespace gcsm {

class AccessPolicy {
 public:
  virtual ~AccessPolicy() = default;

  // Returns the neighbor view of v and charges the traffic of reading it to
  // the caller's tally: each kernel block passes its own, so a fetch does no
  // atomic read-modify-write (the launch merges the tallies once).
  virtual NeighborView fetch(VertexId v, ViewMode mode,
                             gpusim::Traffic& traffic) = 0;

  // True for policies that execute on the (simulated) device.
  virtual bool on_device() const = 0;
};

// CPU engine: reads host memory directly.
class HostPolicy final : public AccessPolicy {
 public:
  explicit HostPolicy(const DynamicGraph& graph) : graph_(graph) {}
  NeighborView fetch(VertexId v, ViewMode mode,
                     gpusim::Traffic& traffic) override;
  bool on_device() const override { return false; }

 private:
  const DynamicGraph& graph_;
};

// GPU zero-copy baseline: cache-line granular reads over PCIe.
class ZeroCopyPolicy final : public AccessPolicy {
 public:
  ZeroCopyPolicy(const DynamicGraph& graph, const gpusim::SimParams& params)
      : graph_(graph), line_bytes_(params.zero_copy_line_bytes) {}
  NeighborView fetch(VertexId v, ViewMode mode,
                     gpusim::Traffic& traffic) override;
  bool on_device() const override { return true; }

 private:
  const DynamicGraph& graph_;
  std::uint32_t line_bytes_;
};

// GPU unified-memory baseline: page-granular migration with an LRU resident
// set on the device.
class UnifiedMemoryPolicy final : public AccessPolicy {
 public:
  UnifiedMemoryPolicy(const DynamicGraph& graph,
                      const gpusim::SimParams& params)
      : graph_(graph),
        pages_(params.um_page_cache_bytes, params.um_page_bytes) {}
  NeighborView fetch(VertexId v, ViewMode mode,
                     gpusim::Traffic& traffic) override;
  bool on_device() const override { return true; }
  gpusim::PageCache& page_cache() { return pages_; }

 private:
  const DynamicGraph& graph_;
  gpusim::PageCache pages_;
};

// GCSM / Naive / VSGM: DCSR cache hit -> device memory; miss -> zero-copy.
class CachedPolicy final : public AccessPolicy {
 public:
  CachedPolicy(const DynamicGraph& graph, const DcsrCache& cache,
               const gpusim::SimParams& params)
      : graph_(graph),
        cache_(cache),
        line_bytes_(params.zero_copy_line_bytes) {}
  NeighborView fetch(VertexId v, ViewMode mode,
                     gpusim::Traffic& traffic) override;
  bool on_device() const override { return true; }

 private:
  const DynamicGraph& graph_;
  const DcsrCache& cache_;
  std::uint32_t line_bytes_;
};

// Instrumentation policy for Fig. 15: host reads, but also records the exact
// per-vertex access counts and bytes of an exact matching run (the ground
// truth the random-walk estimator is validated against).
class CountingPolicy final : public AccessPolicy {
 public:
  explicit CountingPolicy(const DynamicGraph& graph)
      : graph_(graph),
        counts_(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(graph.num_vertices()))) {}
  NeighborView fetch(VertexId v, ViewMode mode,
                     gpusim::Traffic& traffic) override;
  bool on_device() const override { return false; }

  std::vector<std::uint64_t> access_counts() const;

 private:
  const DynamicGraph& graph_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

}  // namespace gcsm
