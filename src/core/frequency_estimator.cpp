#include "core/frequency_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/match_kernel.hpp"
#include "util/binomial.hpp"

namespace gcsm {
namespace {

// The estimator reads lists straight from the graph: its cost is the op
// count it reports, not traffic.
struct GraphFetch {
  const DynamicGraph& graph;
  NeighborView operator()(VertexId v, ViewMode mode) const {
    return graph.view(v, mode);
  }
};

// The directed batch edges that can seed `plan`, in the matcher's work-item
// order (each record, then its reverse).
std::vector<std::pair<VertexId, VertexId>> plan_seeds(
    const QueryGraph& query, const MatchPlan& plan, const DynamicGraph& graph,
    const EdgeBatch& batch) {
  std::vector<std::pair<VertexId, VertexId>> seeds;
  seeds.reserve(batch.updates.size() * 2);
  for (const EdgeUpdate& e : batch.updates) {
    if (kernel::seed_admits(query, plan, graph, e.u, e.v, nullptr)) {
      seeds.emplace_back(e.u, e.v);
    }
    if (kernel::seed_admits(query, plan, graph, e.v, e.u, nullptr)) {
      seeds.emplace_back(e.v, e.u);
    }
  }
  return seeds;
}

struct WalkState {
  const QueryGraph* query = nullptr;
  const MatchPlan* plan = nullptr;
  const DynamicGraph* graph = nullptr;
  std::vector<double>* freq = nullptr;
  Rng* rng = nullptr;
  double inv_degree = 0.0;  // 1/D
  std::uint64_t nodes = 0;
  std::uint64_t ops = 0;
  kernel::Binding bound{};
  std::array<std::vector<VertexId>, kMaxQueryVertices> cand;
  std::vector<VertexId> tmp;
};

// Visits the execution-tree node whose bindings are bound[0 .. 2+level-1]
// with multiplicity `walks` and importance weight `weight`; records the
// neighbor-list accesses needed to compute the next level's candidates and
// recurses into binomially sampled children.
void walk_extend(WalkState& st, std::uint32_t level, std::uint64_t walks,
                 double weight) {
  const MatchPlan& plan = *st.plan;
  if (level >= plan.num_levels()) return;
  ++st.nodes;

  const PlanLevel& pl = plan.levels[level];
  // Record accesses (paper Eq. 3 contribution: weight per walk, `walks`
  // walks pass through this node).
  for (const BackwardConstraint& c : pl.constraints) {
    (*st.freq)[st.bound[c.order_pos]] += static_cast<double>(walks) * weight;
  }

  // Compute the candidate set V exactly as the matcher would.
  std::vector<VertexId>& out = st.cand[level];
  st.ops += kernel::candidate_step(pl, st.bound, GraphFetch{*st.graph}, out,
                                   st.tmp);

  const std::uint32_t bound_count = 2 + level;
  for (const VertexId v : out) {
    if (!kernel::bindable(*st.query, *st.graph, pl, v, st.bound, bound_count,
                          nullptr)) {
      continue;
    }
    const std::uint64_t child_walks = binomial(*st.rng, walks, st.inv_degree);
    ++st.ops;
    if (child_walks == 0) continue;
    st.bound[bound_count] = v;
    walk_extend(st, level + 1, child_walks, weight / st.inv_degree);
  }
}

}  // namespace

FrequencyEstimator::FrequencyEstimator(const QueryGraph& query,
                                       EstimatorOptions options)
    : query_(query),
      plans_(make_delta_plans(query)),
      options_(options) {}

EstimateResult FrequencyEstimator::estimate(const DynamicGraph& graph,
                                            const EdgeBatch& batch,
                                            Rng& rng,
                                            double walk_scale) const {
  EstimateResult result;
  result.frequency.assign(static_cast<std::size_t>(graph.num_vertices()),
                          0.0);
  const std::uint32_t max_degree = std::max(1u, graph.max_degree_bound());
  std::uint64_t walks =
      options_.num_walks != 0
          ? options_.num_walks
          : default_num_walks(batch.updates.size(), max_degree,
                              query_.num_vertices(), options_.min_walks,
                              options_.max_walks);
  if (walk_scale > 0.0 && walk_scale < 1.0) {
    walks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(walks) *
                                      walk_scale));
  }
  result.walks = walks;

  WalkState st;
  st.query = &query_;
  st.graph = &graph;
  st.freq = &result.frequency;
  st.rng = &rng;
  st.inv_degree = 1.0 / static_cast<double>(max_degree);

  for (const MatchPlan& plan : plans_) {
    // The seed loop samples each seed with probability 1/S and reweights
    // by S.
    const std::vector<std::pair<VertexId, VertexId>> seeds =
        plan_seeds(query_, plan, graph, batch);
    if (seeds.empty()) continue;
    const double s = static_cast<double>(seeds.size());
    st.plan = &plan;

    for (const auto& [xa, xb] : seeds) {
      const std::uint64_t b1 = binomial(rng, walks, 1.0 / s);
      ++st.ops;
      if (b1 == 0) continue;
      st.bound[0] = xa;
      st.bound[1] = xb;
      walk_extend(st, 0, b1, s);
    }
  }

  // Average over the M walks (Eq. 3's estimate is per walk).
  const double inv_m = 1.0 / static_cast<double>(walks);
  for (double& f : result.frequency) f *= inv_m;
  result.nodes_visited = st.nodes;
  result.ops = st.ops;
  return result;
}

EstimateResult FrequencyEstimator::estimate_independent(
    const DynamicGraph& graph, const EdgeBatch& batch, Rng& rng) const {
  EstimateResult result;
  result.frequency.assign(static_cast<std::size_t>(graph.num_vertices()),
                          0.0);
  const std::uint32_t max_degree = std::max(1u, graph.max_degree_bound());
  const double d = static_cast<double>(max_degree);
  const std::uint64_t walks =
      options_.num_walks != 0
          ? options_.num_walks
          : default_num_walks(batch.updates.size(), max_degree,
                              query_.num_vertices(), options_.min_walks,
                              options_.max_walks);
  result.walks = walks;

  // Per-plan seed lists (computed once; the walk itself is per-iteration).
  std::vector<std::vector<std::pair<VertexId, VertexId>>> seeds(
      plans_.size());
  for (std::size_t p = 0; p < plans_.size(); ++p) {
    seeds[p] = plan_seeds(query_, plans_[p], graph, batch);
  }

  kernel::Binding bound{};
  std::vector<VertexId> cand;
  std::vector<VertexId> tmp;
  for (std::size_t p = 0; p < plans_.size(); ++p) {
    const MatchPlan& plan = plans_[p];
    if (seeds[p].empty()) continue;
    const double s = static_cast<double>(seeds[p].size());
    for (std::uint64_t w = 0; w < walks; ++w) {
      // One independent walk: uniform seed, then at each level compute V,
      // continue with probability |V|/D into a uniform child.
      const auto& [xa, xb] = seeds[p][rng.bounded(seeds[p].size())];
      bound[0] = xa;
      bound[1] = xb;
      double weight = s;
      for (std::uint32_t level = 0; level < plan.num_levels(); ++level) {
        const PlanLevel& pl = plan.levels[level];
        ++result.nodes_visited;
        for (const BackwardConstraint& c : pl.constraints) {
          result.frequency[bound[c.order_pos]] += weight;
        }
        result.ops +=
            kernel::candidate_step(pl, bound, GraphFetch{graph}, cand, tmp);
        // Filter to valid matching vertices.
        const std::uint32_t bound_count = 2 + level;
        std::erase_if(cand, [&](VertexId v) {
          return !kernel::bindable(query_, graph, pl, v, bound, bound_count,
                                   nullptr);
        });
        if (cand.empty()) break;
        // Continue with probability |V|/D, child uniform in V.
        if (!rng.bernoulli(static_cast<double>(cand.size()) / d)) break;
        bound[bound_count] = cand[rng.bounded(cand.size())];
        weight *= d;
      }
    }
  }
  const double inv_m = 1.0 / static_cast<double>(walks);
  for (double& f : result.frequency) f *= inv_m;
  return result;
}

EstimateResult FrequencyEstimator::estimate_adaptive(
    const DynamicGraph& graph, const EdgeBatch& batch, Rng& rng, double alpha,
    double confidence) const {
  EstimatorOptions opts = options_;
  std::uint64_t walks = std::max<std::uint64_t>(options_.min_walks, 1024);
  EstimateResult result;
  for (;;) {
    opts.num_walks = walks;
    result = FrequencyEstimator(query_, opts).estimate(graph, batch, rng);
    if (walks >= options_.max_walks) break;

    // C_y: the smallest positive estimated frequency — the hardest vertex
    // to rank correctly among those we would consider caching.
    double c_y = 0.0;
    for (const double f : result.frequency) {
      if (f > 0.0 && (c_y == 0.0 || f < c_y)) c_y = f;
    }
    if (c_y <= 0.0) break;  // nothing sampled: more walks will not rank

    const double needed = min_walks_for_confidence(
        batch.updates.size(), std::max(1u, graph.max_degree_bound()),
        query_.num_vertices(), alpha, confidence, c_y);
    if (static_cast<double>(walks) >= needed) break;
    const double bumped =
        std::min(needed, 2.0 * static_cast<double>(walks));
    walks = std::min<std::uint64_t>(
        options_.max_walks,
        static_cast<std::uint64_t>(std::max(bumped,
                                            static_cast<double>(walks) + 1)));
  }
  return result;
}

std::uint64_t FrequencyEstimator::default_num_walks(
    std::uint64_t delta_edges, std::uint32_t max_degree,
    std::uint32_t pattern_size, std::uint64_t min_walks,
    std::uint64_t max_walks) {
  // M = |ΔE| * D^(n-2) / 32^n (paper Sec. VI-A), evaluated in floating
  // point to avoid overflow. We additionally cap M at |ΔE| * D / 4: in the
  // merged execution the expected fraction of level-1 execution-tree nodes
  // explored is ~M / (2|ΔE| * D), so this cap bounds the estimator at
  // ~1/8 of one matching level. The paper's uncapped formula presumes
  // evaluation-scale graphs whose deep levels dwarf level 1 (Table II keeps
  // FE under ~17%); at this library's scales the cap preserves that share.
  const double m = static_cast<double>(delta_edges) *
                   std::pow(static_cast<double>(max_degree),
                            static_cast<double>(pattern_size) - 2.0) /
                   std::pow(32.0, static_cast<double>(pattern_size));
  // The raw formula spans many orders of magnitude at library scale (it was
  // tuned for billion-edge graphs), so it is clamped into a window that
  // keeps both coverage and cost sane:
  //  * floor 64 * |ΔE|  — enough walks that every seed's subtree is sampled
  //    (coverage needs M at a healthy multiple of the ~2|ΔE| seeds,
  //    especially on low-degree graphs where single walks are cheap);
  //  * ceiling |ΔE| * max(D/4, 64) — bounds the expected fraction of the
  //    level-1 execution tree the merged run explores, keeping the FE share
  //    of total time in the paper's Table-II range.
  const double d = static_cast<double>(max_degree);
  const double de = static_cast<double>(delta_edges);
  const double floor_walks = 64.0 * de;
  const double ceiling_walks = de * std::max(d / 4.0, 64.0);
  double walks = std::isfinite(m) ? m : ceiling_walks;
  walks = std::clamp(walks, std::min(floor_walks, ceiling_walks),
                     ceiling_walks);
  walks = std::min(walks, static_cast<double>(max_walks));
  walks = std::max(walks, static_cast<double>(min_walks));
  return static_cast<std::uint64_t>(walks);
}

double FrequencyEstimator::min_walks_for_confidence(
    std::uint64_t delta_edges, std::uint32_t max_degree,
    std::uint32_t pattern_size, double alpha, double delta, double c_y) {
  // Paper Eq. 5.
  const double n = static_cast<double>(pattern_size);
  return (n - 1.0) * (2.0 + alpha) * static_cast<double>(delta_edges) *
         std::pow(static_cast<double>(max_degree), n - 2.0) /
         (alpha * alpha * (1.0 - delta) * c_y);
}

}  // namespace gcsm
