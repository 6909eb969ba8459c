#include "core/intersect.hpp"

#include <algorithm>

#include "core/list_ref.hpp"

namespace gcsm {
namespace {

// Galloping lower_bound by decoded id: doubles the step from `from` before
// binary searching; O(log distance) when the target is near. Decoding is
// the identity on live ids, so plain id lists and stored runs with
// tombstones share it.
std::size_t gallop(const VertexId* data, std::size_t n, std::size_t from,
                   VertexId target) {
  const auto below = [](VertexId stored, VertexId id) {
    return decode_neighbor(stored) < id;
  };
  std::size_t step = 1;
  std::size_t hi = from;
  while (hi < n && below(data[hi], target)) {
    hi += step;
    step *= 2;
  }
  const std::size_t lo = hi >= step ? hi - step : 0;
  const VertexId* it = std::lower_bound(
      data + std::min(lo, n), data + std::min(hi, n), target, below);
  return static_cast<std::size_t>(it - data);
}

// acc ∩ live(b) in place over one sorted run of `nb` stored entries, `live`
// of them live. kSkipDead: tombstones are dead and skipped (kNew);
// otherwise every entry is live, decoded (kOld). Returns intersect_into's
// count on the live ids.
template <bool kSkipDead>
std::uint64_t intersect_run_into(std::vector<VertexId>& acc,
                                 const VertexId* b, std::size_t nb,
                                 std::size_t live) {
  if (acc.empty()) return 0;
  if (live == 0) {
    acc.clear();
    return 0;
  }
  VertexId* a = acc.data();
  const std::size_t na = acc.size();
  std::size_t w = 0;
  if (na * 32 < live) {
    // intersect_into gallops here and charges 8 per acc element up to and
    // including the first one past b's largest live id; no later element
    // can match.
    std::size_t last = nb - 1;
    if constexpr (kSkipDead) {
      while (b[last] < 0) --last;
    }
    const VertexId b_max = decode_neighbor(b[last]);
    const std::size_t reach = static_cast<std::size_t>(
        std::upper_bound(a, a + na, b_max) - a);
    std::size_t pos = 0;
    for (std::size_t i = 0; i < reach; ++i) {
      const VertexId x = a[i];
      pos = gallop(b, nb, pos, x);
      bool hit = decode_neighbor(b[pos]) == x;  // pos < nb: x <= b_max
      if constexpr (kSkipDead) hit = hit && b[pos] >= 0;
      a[w] = x;
      w += hit ? 1 : 0;
    }
    acc.resize(w);
    return 8 * std::min(na, reach + 1);
  }
  // Branchless merge. Each iteration advances i, j or both, as
  // intersect_into's does, so its count is i + j - matches, with the dead
  // entries stepped over taken out of j.
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t dead = 0;
  while (i < na && j < nb) {
    const VertexId x = a[i];
    const VertexId s = b[j];
    const VertexId y = decode_neighbor(s);
    a[w] = x;
    if constexpr (kSkipDead) {
      const std::size_t d = static_cast<std::uint32_t>(s) >> 31;
      const std::size_t alive = d ^ 1;
      w += alive & static_cast<std::size_t>(x == y);
      i += alive & static_cast<std::size_t>(x <= y);
      j += d | static_cast<std::size_t>(y <= x);
      dead += d;
    } else {
      w += static_cast<std::size_t>(x == y);
      i += static_cast<std::size_t>(x <= y);
      j += static_cast<std::size_t>(y <= x);
    }
  }
  acc.resize(w);
  return i + (j - dead) - w;
}

}  // namespace

std::uint64_t intersect_sorted(const VertexId* a, std::size_t na,
                               const VertexId* b, std::size_t nb,
                               std::vector<VertexId>& out) {
  out.clear();
  if (na == 0 || nb == 0) return 0;
  std::uint64_t ops = 0;

  // Galloping path when one list is much shorter.
  if (na * 32 < nb || nb * 32 < na) {
    const VertexId* small = na <= nb ? a : b;
    const std::size_t ns = na <= nb ? na : nb;
    const VertexId* big = na <= nb ? b : a;
    const std::size_t nbig = na <= nb ? nb : na;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < ns; ++i) {
      pos = gallop(big, nbig, pos, small[i]);
      ops += 8;  // amortized gallop cost
      if (pos == nbig) break;
      if (big[pos] == small[i]) out.push_back(small[i]);
    }
    return ops;
  }

  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    ++ops;
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return ops;
}

std::uint64_t intersect_into(std::vector<VertexId>& acc, const VertexId* b,
                             std::size_t nb) {
  if (acc.empty()) return 0;
  if (nb == 0) {
    acc.clear();
    return 0;
  }
  std::uint64_t ops = 0;
  std::size_t w = 0;
  if (acc.size() * 32 < nb) {
    std::size_t pos = 0;
    for (const VertexId x : acc) {
      pos = gallop(b, nb, pos, x);
      ops += 8;
      if (pos == nb) break;
      if (b[pos] == x) acc[w++] = x;
    }
  } else {
    std::size_t j = 0;
    for (std::size_t i = 0; i < acc.size() && j < nb;) {
      ++ops;
      if (acc[i] < b[j]) {
        ++i;
      } else if (b[j] < acc[i]) {
        ++j;
      } else {
        acc[w++] = acc[i];
        ++i;
        ++j;
      }
    }
  }
  acc.resize(w);
  return ops;
}

std::uint64_t intersect_view_into(std::vector<VertexId>& acc,
                                  const NeighborView& b,
                                  std::vector<VertexId>& tmp) {
  const NeighborSeg& p = b.prefix;
  if (b.mode == ViewMode::kOld) {
    return p.size + intersect_run_into<false>(acc, p.data, p.size, p.size);
  }
  if (b.appended.size > 0) {
    tmp.clear();
    materialize_view(b, tmp);
    return tmp.size() + intersect_into(acc, tmp.data(), tmp.size());
  }
  std::size_t dead = 0;
  for (std::uint32_t k = 0; k < p.size; ++k) {
    dead += static_cast<std::uint32_t>(p.data[k]) >> 31;
  }
  const std::size_t live = p.size - dead;
  return live + (dead == 0
                     ? intersect_run_into<false>(acc, p.data, p.size, live)
                     : intersect_run_into<true>(acc, p.data, p.size, live));
}

}  // namespace gcsm
