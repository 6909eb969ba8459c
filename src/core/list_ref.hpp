// Materialization of neighbor-list views.
//
// A NeighborView is up to two sorted runs with tombstone semantics (see
// graph/dynamic_graph.hpp). The candidate step materializes a level's first
// view into the level's buffer of decoded live ids and intersects it in
// place with the others (intersect_view_into, core/intersect.hpp), which
// read the stored entries where they lie; this is what the STMatch-style
// kernel does when it merges N and ΔN ("perform set operations involving
// N' separately for N and ΔN", paper Sec. V-C).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"

namespace gcsm {

// Appends the live decoded ids of `view` to `out` in ascending order.
//  kOld: every prefix entry decoded (tombstones were live pre-batch).
//  kNew: prefix entries that are not tombstoned, merged with the appended
//        run (both sorted, so a linear merge).
// out's capacity grows by powers of two.
void materialize_view(const NeighborView& view, std::vector<VertexId>& out);

// Number of live ids `materialize_view` would produce.
std::uint32_t view_live_size(const NeighborView& view);

// True if `target` is a live member of the view (binary search per run).
bool view_contains(const NeighborView& view, VertexId target);

}  // namespace gcsm
