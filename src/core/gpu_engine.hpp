// Cache-content selection strategies for the device-side matching engines.
//
//   * select_by_frequency — GCSM: vertices ordered by estimated access
//     frequency (random-walk estimator), positive-frequency only;
//   * select_by_degree    — the Naive baseline: degree as a (poor) proxy for
//     access frequency;
//   * khop_vertices       — VSGM: every vertex within k hops of the batch,
//     k = query diameter, so the kernel never misses.
//
// The DcsrCache applies the byte budget in the order these return.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/types.hpp"

namespace gcsm {

// The graph holding a vertex's complete neighbor list: the one graph on a
// single device, the vertex's owner shard's graph when sharded.
using ListSource = std::function<const DynamicGraph&(VertexId)>;

// Vertices with frequency > min_frequency, descending frequency order.
std::vector<VertexId> select_by_frequency(const std::vector<double>& frequency,
                                          double min_frequency = 0.0);

// All vertices in descending live-degree order (ties by id).
std::vector<VertexId> select_by_degree(const DynamicGraph& graph);

// Every vertex reachable within `hops` hops (NEW view) of any endpoint of
// the batch, in BFS order from the batch (so nearer vertices survive the
// budget first). Each list is read from `lists(v)`; endpoints at or past
// `num_vertices` (vertices the batch has yet to add) are skipped.
std::vector<VertexId> khop_vertices(const ListSource& lists,
                                    VertexId num_vertices,
                                    const EdgeBatch& batch,
                                    std::uint32_t hops);

// The same search with every list read from `graph`.
std::vector<VertexId> khop_vertices(const DynamicGraph& graph,
                                    const EdgeBatch& batch,
                                    std::uint32_t hops);

// Total stored bytes of the given vertices' lists (what a DCSR pack would
// place in colidx).
std::uint64_t total_list_bytes(const DynamicGraph& graph,
                               const std::vector<VertexId>& vertices);

}  // namespace gcsm
