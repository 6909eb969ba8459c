#include "core/gpu_engine.hpp"

#include <algorithm>
#include <numeric>

#include "core/list_ref.hpp"

namespace gcsm {

std::vector<VertexId> select_by_frequency(const std::vector<double>& frequency,
                                          double min_frequency) {
  std::vector<VertexId> out;
  for (std::size_t v = 0; v < frequency.size(); ++v) {
    if (frequency[v] > min_frequency) {
      out.push_back(static_cast<VertexId>(v));
    }
  }
  std::sort(out.begin(), out.end(), [&](VertexId a, VertexId b) {
    if (frequency[a] != frequency[b]) return frequency[a] > frequency[b];
    return a < b;
  });
  return out;
}

std::vector<VertexId> select_by_degree(const DynamicGraph& graph) {
  std::vector<VertexId> out(static_cast<std::size_t>(graph.num_vertices()));
  std::iota(out.begin(), out.end(), 0);
  std::sort(out.begin(), out.end(), [&](VertexId a, VertexId b) {
    const std::uint32_t da = graph.live_degree(a);
    const std::uint32_t db = graph.live_degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  return out;
}

std::vector<VertexId> khop_vertices(const ListSource& lists,
                                    VertexId num_vertices,
                                    const EdgeBatch& batch,
                                    std::uint32_t hops) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(num_vertices), 0);
  std::vector<VertexId> order;
  std::vector<VertexId> frontier;
  auto add = [&](VertexId v) {
    if (v < num_vertices && !seen[v]) {
      seen[v] = 1;
      order.push_back(v);
      frontier.push_back(v);
    }
  };
  for (const EdgeUpdate& e : batch.updates) {
    add(e.u);
    add(e.v);
  }
  std::vector<VertexId> nbrs;
  for (std::uint32_t hop = 0; hop < hops; ++hop) {
    std::vector<VertexId> next;
    for (const VertexId u : frontier) {
      nbrs.clear();
      materialize_view(lists(u).view(u, ViewMode::kNew), nbrs);
      for (const VertexId v : nbrs) {
        if (!seen[v]) {
          seen[v] = 1;
          order.push_back(v);
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  return order;
}

std::vector<VertexId> khop_vertices(const DynamicGraph& graph,
                                    const EdgeBatch& batch,
                                    std::uint32_t hops) {
  return khop_vertices(
      [&graph](VertexId) -> const DynamicGraph& { return graph; },
      graph.num_vertices(), batch, hops);
}

std::uint64_t total_list_bytes(const DynamicGraph& graph,
                               const std::vector<VertexId>& vertices) {
  std::uint64_t bytes = 0;
  for (const VertexId v : vertices) bytes += graph.list_bytes(v);
  return bytes;
}

}  // namespace gcsm
