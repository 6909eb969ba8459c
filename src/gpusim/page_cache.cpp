#include "gpusim/page_cache.hpp"

namespace gcsm::gpusim {

PageCache::PageCache(std::uint64_t capacity_bytes, std::uint32_t page_bytes)
    : capacity_pages_(capacity_bytes / page_bytes), page_bytes_(page_bytes) {
  if (capacity_pages_ == 0) capacity_pages_ = 1;
}

void PageCache::access(const void* addr, std::size_t bytes,
                       Traffic& traffic) {
  if (bytes == 0) return;
  const auto start = reinterpret_cast<std::uintptr_t>(addr);
  const std::uint64_t first = start / page_bytes_;
  const std::uint64_t last = (start + bytes - 1) / page_bytes_;
  std::lock_guard<std::mutex> lk(mu_);
  for (std::uint64_t page = first; page <= last; ++page) {
    touch_page(page, traffic);
  }
}

void PageCache::touch_page(std::uint64_t page, Traffic& traffic) {
  const auto it = map_.find(page);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++traffic.um_hits;
    return;
  }
  ++traffic.um_faults;
  if (map_.size() >= capacity_pages_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
  }
  lru_.push_front(page);
  map_[page] = lru_.begin();
}

void PageCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  map_.clear();
}

std::size_t PageCache::resident_pages() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

}  // namespace gcsm::gpusim
