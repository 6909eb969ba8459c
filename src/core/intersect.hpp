// Sorted set intersection kernels.
//
// STMatch's GPU kernel uses unrolled SIMD merge intersection; the host
// analog here is a branch-light two-pointer merge with a galloping fast path
// when the lists are very different in length (the common case around hub
// vertices in power-law graphs). The returned op count feeds the simulated
// compute-time model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/types.hpp"

namespace gcsm {

// out = a ∩ b (both ascending, duplicate-free). Returns the number of
// comparison operations performed (for compute accounting).
std::uint64_t intersect_sorted(const VertexId* a, std::size_t na,
                               const VertexId* b, std::size_t nb,
                               std::vector<VertexId>& out);

// In-place variant used by multi-way intersections: keeps only the elements
// of `acc` present in [b, b+nb). Returns op count.
std::uint64_t intersect_into(std::vector<VertexId>& acc, const VertexId* b,
                             std::size_t nb);

// The candidate step's in-place intersection with a neighbor view: keeps
// only the elements of `acc` that are live in `b`, reading b's stored
// entries where they lie (kOld tombstones decoded as live, kNew tombstones
// skipped) instead of copying them first. A kNew view with an appended run
// is materialized into `tmp` and intersected with intersect_into.
//
// Returns the ops the simulated kernel charges for the step, which the cost
// model fixes and the host loop does not: |live(b)| for reading b, plus
// what intersect_into counts on the materialized b. That is, when
// |acc|·32 >= |live(b)|, the merge's iterations (i_end + j_end - matches);
// otherwise 8 per acc element up to and including the first one past b's
// largest live id. The host may therefore run any loop it likes.
std::uint64_t intersect_view_into(std::vector<VertexId>& acc,
                                  const NeighborView& b,
                                  std::vector<VertexId>& tmp);

}  // namespace gcsm
