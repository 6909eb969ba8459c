#include "core/list_ref.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace gcsm {

void materialize_view(const NeighborView& view, std::vector<VertexId>& out) {
  const NeighborSeg& p = view.prefix;
  const NeighborSeg& a = view.appended;
  GCSM_ASSERT(view.mode == ViewMode::kNew || a.size == 0,
              "OLD view carries an appended run");
  GCSM_ASSERT(a.size == 0 || !is_deleted_neighbor(a.data[0]),
              "tombstone at the head of an appended run");
  // One bulk write into room for every stored entry, trimmed afterwards.
  // Capacity grows by powers of two, so a reused buffer stops reallocating
  // soon and never holds much more than twice its largest list.
  const std::size_t base = out.size();
  const std::size_t room = base + p.size + a.size;
  if (room > out.capacity()) out.reserve(std::bit_ceil(room));
  out.resize(room);
  VertexId* dst = out.data() + base;
  if (view.mode == ViewMode::kOld) {
    // Every prefix entry was live before the batch: decode tombstones.
    for (std::uint32_t i = 0; i < p.size; ++i) {
      dst[i] = decode_neighbor(p.data[i]);
    }
    return;
  }
  // kNew: merge live prefix entries with the appended run. Tombstones must
  // never reach the candidate buffers; only prefix entries can carry them,
  // and every write of one below is overwritten by the next entry or cut
  // by the final resize. The runs hold no live id in common (a re-inserted
  // id is a tombstone in the prefix), so the merge needs no tie rule.
  std::size_t w = 0;
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  while (i < p.size && j < a.size) {
    const VertexId s = p.data[i];
    const VertexId t = a.data[j];
    const bool dead = s < 0;
    const bool take_prefix = !dead && s < t;
    dst[w] = take_prefix ? s : t;
    w += dead ? 0 : 1;
    i += (dead || take_prefix) ? 1 : 0;
    j += (dead || take_prefix) ? 0 : 1;
  }
  for (; i < p.size; ++i) {
    dst[w] = p.data[i];
    w += p.data[i] < 0 ? 0 : 1;
  }
  for (; j < a.size; ++j) dst[w++] = a.data[j];
  out.resize(base + w);
}

std::uint32_t view_live_size(const NeighborView& view) {
  if (view.mode == ViewMode::kOld) return view.prefix.size;
  std::uint32_t live = view.appended.size;
  for (std::uint32_t i = 0; i < view.prefix.size; ++i) {
    if (!is_deleted_neighbor(view.prefix.data[i])) ++live;
  }
  return live;
}

bool view_contains(const NeighborView& view, VertexId target) {
  const NeighborSeg& p = view.prefix;
  // The prefix is sorted by decoded id whether or not entries are
  // tombstoned, so binary search on decoded values works for both modes.
  std::uint32_t lo = 0;
  std::uint32_t hi = p.size;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (decode_neighbor(p.data[mid]) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < p.size && decode_neighbor(p.data[lo]) == target) {
    if (view.mode == ViewMode::kOld) return true;
    if (!is_deleted_neighbor(p.data[lo])) return true;
    // Tombstoned in the prefix: fall through to the appended run (an edge
    // deleted and re-inserted in different batches).
  }
  if (view.mode == ViewMode::kNew && view.appended.size > 0) {
    return std::binary_search(view.appended.data,
                              view.appended.data + view.appended.size,
                              target);
  }
  return false;
}

}  // namespace gcsm
