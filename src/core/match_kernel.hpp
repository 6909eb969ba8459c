// The one match kernel (DESIGN.md §5, "One enumeration core").
//
// Every matcher runs these pieces, so a change to the inner loop lands in
// one place: MatchEngine (core/cpu_engine.cpp) on one device, ShardedMatcher
// (shard/sharded_matcher.cpp) routed across shards, and the random-walk
// estimator (core/frequency_estimator.cpp), which samples the same
// execution tree with its own walk but the same candidate step, bind check
// and seed check.
//
// Mechanics per seed edge, following STMatch: an explicit per-worker stack
// of candidate buffers (no recursion), one level per pattern vertex beyond
// the seed pair; candidates come from a multi-way sorted intersection of the
// constraint views; label, injectivity and filter checks run at bind time.
// How a list is fetched and what happens before a descent are template
// parameters, so the hot loop makes no std::function call per candidate.
//
// Internal to src/: not part of the library's API.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/intersect.hpp"
#include "core/list_ref.hpp"

namespace gcsm::kernel {

// Data vertices bound so far: bound[i] matches the plan's vertex_order[i].
using Binding = std::array<VertexId, kMaxQueryVertices>;

// Per-worker scratch: the DFS stack (one candidate buffer and cursor per
// plan level), a list buffer every candidate step reuses, and the worker's
// counts, traffic tally and busy time, summed once the launch ends. Only
// its own block writes it; cache-line alignment keeps blocks from sharing
// a line.
struct alignas(64) WorkerScratch {
  std::array<std::vector<VertexId>, kMaxQueryVertices> cand;
  std::array<std::uint32_t, kMaxQueryVertices> cursor{};
  std::vector<VertexId> tmp;
  MatchStats stats;
  gpusim::Traffic traffic;
  double busy_seconds = 0.0;
};

// The matchers' fetch: reads a list through an access policy, which charges
// its traffic to the worker's tally, and charges the set operations done on
// fetched lists to the right side of the cost model: SIMT compute for
// device policies, host ops for CPU policies.
class PolicyFetch {
 public:
  PolicyFetch(AccessPolicy& policy, gpusim::Traffic& traffic)
      : policy_(policy),
        traffic_(traffic),
        ops_(policy.on_device() ? traffic.compute_ops : traffic.host_ops) {}

  NeighborView operator()(VertexId v, ViewMode mode) const {
    return policy_.fetch(v, mode, traffic_);
  }
  void charge(std::uint64_t ops) const { ops_ += ops; }

 private:
  AccessPolicy& policy_;
  gpusim::Traffic& traffic_;
  std::uint64_t& ops_;  // traffic_'s compute_ops or host_ops
};

// Serializes sink calls across workers; without a sink, emitting is free.
class SinkLock {
 public:
  explicit SinkLock(const MatchSink* sink) : sink_(sink) {}
  void emit(const MatchPlan& plan, std::span<const VertexId> binding,
            int sign) {
    if (sink_ == nullptr) return;
    std::lock_guard<std::mutex> lk(mu_);
    (*sink_)(plan, binding, sign);
  }

 private:
  const MatchSink* sink_;
  std::mutex mu_;
};

// One delta work item: plan x ΔE record x orientation, flattened so work
// stealing balances hot seed edges across blocks.
struct SeedItem {
  std::size_t plan = 0;
  VertexId xa = kInvalidVertex;
  VertexId xb = kInvalidVertex;
  int sign = +1;
};

inline std::size_t num_seed_items(std::size_t num_plans,
                                  const EdgeBatch& batch) {
  return num_plans * batch.updates.size() * 2;
}

inline SeedItem decode_seed_item(std::size_t item, const EdgeBatch& batch) {
  const std::size_t per_plan = batch.updates.size() * 2;
  const std::size_t rest = item % per_plan;
  const EdgeUpdate& e = batch.updates[rest / 2];
  const bool swap = (rest % 2) != 0;
  return {item / per_plan, swap ? e.v : e.u, swap ? e.u : e.v, e.sign};
}

// ΔR_i: the seed pair must match the seed query edge's labels and the
// optional filter. A pair naming a vertex the graph does not hold yet has
// no list to read and is skipped; that happens only when a batch that
// declares new vertices is estimated before it is applied.
inline bool seed_admits(const QueryGraph& query, const MatchPlan& plan,
                        const DynamicGraph& graph, VertexId xa, VertexId xb,
                        const CandidateFilter* filter) {
  if (xa >= graph.num_vertices() || xb >= graph.num_vertices()) return false;
  if (!query.label_matches(plan.seed_a, graph.label(xa))) return false;
  if (!query.label_matches(plan.seed_b, graph.label(xb))) return false;
  return filter == nullptr ||
         (filter->admits(plan.seed_a, xa) && filter->admits(plan.seed_b, xb));
}

// The bind check for candidate v at level `pl`: label, then injectivity
// against the `bound_count` vertices bound so far, then the optional filter.
inline bool bindable(const QueryGraph& query, const DynamicGraph& graph,
                     const PlanLevel& pl, VertexId v, const Binding& bound,
                     std::uint32_t bound_count,
                     const CandidateFilter* filter) {
  if (!query.label_matches(pl.query_vertex, graph.label(v))) return false;
  for (std::uint32_t i = 0; i < bound_count; ++i) {
    if (bound[i] == v) return false;
  }
  return filter == nullptr || filter->admits(pl.query_vertex, v);
}

// The candidate step: out = the intersection of the level's constraint
// views, fetched in constraint order and stopping once out is empty. Only
// the first view is copied (into out); the others are intersected in place
// where they lie. Returns the set-operation count the cost model charges:
// every live id of every view read plus every comparison of intersect_into
// (see intersect_view_into). fetch(v, mode) returns v's NeighborView.
template <typename Fetch>
std::uint64_t candidate_step(const PlanLevel& pl, const Binding& bound,
                             const Fetch& fetch, std::vector<VertexId>& out,
                             std::vector<VertexId>& tmp) {
  out.clear();
  const BackwardConstraint& c0 = pl.constraints[0];
  materialize_view(fetch(bound[c0.order_pos], c0.view), out);
  std::uint64_t ops = out.size();
  for (std::size_t i = 1; i < pl.constraints.size() && !out.empty(); ++i) {
    const BackwardConstraint& c = pl.constraints[i];
    ops += intersect_view_into(out, fetch(bound[c.order_pos], c.view), tmp);
  }
  return ops;
}

// The default hook: every level runs where its parent did.
struct AlwaysDescend {
  bool operator()(std::uint32_t /*level*/, const Binding& /*bound*/) const {
    return true;
  }
};

// Explicit-stack DFS from plan level `start`, with bound[0 .. start+2)
// fixed. Before computing the candidates of any level L >= start it asks
// before_descend(L, bound); false drops that subtree here (the sharded
// matcher ships it to another shard instead). Every full binding counts in
// scratch.stats with `sign` and goes to the sink. Each candidate step is
// charged through fetch.charge(ops).
template <typename Fetch, typename Hook = AlwaysDescend>
void enumerate(const QueryGraph& query, const MatchPlan& plan,
               const DynamicGraph& graph, Binding bound, std::uint32_t start,
               int sign, const Fetch& fetch, WorkerScratch& scratch,
               SinkLock& sink, const CandidateFilter* filter,
               const Hook& before_descend = {}) {
  const std::uint32_t num_levels = plan.num_levels();
  auto emit = [&](std::uint32_t depth) {
    scratch.stats.signed_embeddings += sign;
    if (sign > 0) {
      ++scratch.stats.positive;
    } else {
      ++scratch.stats.negative;
    }
    sink.emit(plan, std::span<const VertexId>(bound.data(), depth), sign);
  };
  // Computes `level`'s candidates; false if there are none.
  auto descend = [&](std::uint32_t level) {
    std::vector<VertexId>& cand = scratch.cand[level];
    fetch.charge(
        candidate_step(plan.levels[level], bound, fetch, cand, scratch.tmp));
    scratch.cursor[level] = 0;
    return !cand.empty();
  };

  if (num_levels == 0) {
    emit(2);
    return;
  }
  if (!before_descend(start, bound) || !descend(start)) return;

  const auto base = static_cast<std::int32_t>(start);
  std::int32_t level = base;
  while (level >= base) {
    const std::vector<VertexId>& cand = scratch.cand[level];
    std::uint32_t& cur = scratch.cursor[level];
    if (cur >= cand.size()) {
      --level;
      continue;
    }
    const VertexId v = cand[cur++];
    const auto bound_count = 2 + static_cast<std::uint32_t>(level);
    if (!bindable(query, graph, plan.levels[level], v, bound, bound_count,
                  filter)) {
      continue;
    }
    bound[bound_count] = v;
    const std::uint32_t next = static_cast<std::uint32_t>(level) + 1;
    if (next == num_levels) {
      emit(bound_count + 1);
      continue;
    }
    if (!before_descend(next, bound) || !descend(next)) continue;
    level = static_cast<std::int32_t>(next);
  }
}

// The static (Fig. 2a) seed scan from xa: calls on_seed(xb) for every live
// NEW-view neighbor xb whose labels fit the seed query edge, in list order.
// Reading xa's list is charged like a candidate step.
template <typename Fetch, typename OnSeed>
void scan_static_seeds(const QueryGraph& query, const MatchPlan& plan,
                       const DynamicGraph& graph, VertexId xa,
                       const Fetch& fetch, const OnSeed& on_seed) {
  if (!query.label_matches(plan.seed_a, graph.label(xa))) return;
  std::vector<VertexId> seeds;  // not scratch: on_seed's DFS reuses that
  materialize_view(fetch(xa, ViewMode::kNew), seeds);
  fetch.charge(seeds.size());
  for (const VertexId xb : seeds) {
    if (query.label_matches(plan.seed_b, graph.label(xb))) on_seed(xb);
  }
}

}  // namespace gcsm::kernel
