// LRU page cache modeling the unified-memory resident set on the device
// (cudaMallocManaged analog). Used only by the UM baseline: every kernel
// access is mapped to a 4-KiB page; a miss is a page fault that migrates the
// whole page over PCIe (Sec. II-C's "wastes PCIe bandwidth" argument).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "gpusim/cost_model.hpp"

namespace gcsm::gpusim {

class PageCache {
 public:
  // capacity_bytes is rounded down to whole pages (minimum one page).
  PageCache(std::uint64_t capacity_bytes, std::uint32_t page_bytes);

  // Registers an access to `bytes` bytes starting at host address `addr`.
  // Counts one fault per non-resident page touched (plus hits for resident
  // pages) on the caller's `traffic` tally, updating LRU recency.
  void access(const void* addr, std::size_t bytes, Traffic& traffic);

  void clear();
  std::size_t resident_pages() const;
  std::uint64_t capacity_pages() const { return capacity_pages_; }

 private:
  void touch_page(std::uint64_t page, Traffic& traffic);

  std::uint64_t capacity_pages_;
  std::uint32_t page_bytes_;
  mutable std::mutex mu_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
};

}  // namespace gcsm::gpusim
