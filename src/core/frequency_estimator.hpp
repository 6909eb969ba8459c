// Random-walk access-frequency estimation (paper Sec. IV).
//
// The estimator predicts, per data vertex, how often the exact incremental
// matching of a batch will read that vertex's neighbor list — without
// running the matching. It samples paths of the WCOJ execution tree:
// a walk starts at a uniformly chosen seed edge of ΔE (probability 1/S) and,
// at each level, descends into a uniformly chosen child with total continue
// probability |V|/D (so each specific child is taken with probability 1/D,
// D = max degree). A vertex access observed at tree level i is reweighted by
// S * D^(i-1), which makes the estimate unbiased (paper Eq. 3, Theorem 1).
//
// Instead of running M independent walks, all M are merged into one
// traversal (paper Sec. IV-B): each loop iteration draws
// B_child ~ Binomial(B_parent, 1/D) and recurses only where B_child > 0 —
// equivalent in distribution, with one set-intersection per visited node
// instead of M.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "query/plan.hpp"
#include "query/query_graph.hpp"
#include "util/rng.hpp"

namespace gcsm {

struct EstimatorOptions {
  // 0 uses the paper's setting M = |ΔE| * D^(n-2) / 32^n, clamped below.
  std::uint64_t num_walks = 0;
  // Clamps on the default M (see default_num_walks: the paper's formula
  // capped at |ΔE| * D / 4 so the merged execution explores at most ~1/8 of
  // the level-1 execution tree). Explicit num_walks ignores the clamps.
  std::uint64_t min_walks = 1u << 12;
  std::uint64_t max_walks = 1u << 24;
};

struct EstimateResult {
  // Estimated access count per vertex (0 for never-sampled vertices).
  std::vector<double> frequency;
  std::uint64_t walks = 0;          // M actually used
  std::uint64_t nodes_visited = 0;  // sampled execution-tree nodes
  std::uint64_t ops = 0;            // set-operation work (for sim time)
};

class FrequencyEstimator {
 public:
  explicit FrequencyEstimator(const QueryGraph& query,
                              EstimatorOptions options = {});

  // Estimates access frequency for matching `batch` against `graph` (which
  // should already have the batch applied, pre-reorganization, so that OLD
  // and NEW views are both visible — the same state the matcher will see).
  // The pipelined schedule estimates before the apply, which only changes
  // cache content; records naming vertices the graph does not hold yet are
  // then skipped.
  //
  // `walk_scale` multiplies the resolved walk count M (clamped to keep at
  // least one walk). The overload controller's degradation ladder shrinks it
  // below 1.0 under sustained load: fewer walks cost less sim time but only
  // coarsen the cache's row ranking — match counts never depend on cache
  // content, so scaling is count-neutral (docs/ROBUSTNESS.md, "Overload &
  // admission control").
  EstimateResult estimate(const DynamicGraph& graph, const EdgeBatch& batch,
                          Rng& rng, double walk_scale = 1.0) const;

  // Reference implementation that runs `num_walks` genuinely independent
  // random walks (one root-to-stop path each), as described in Sec. IV-A
  // *before* the merged-execution optimization. Same estimator in
  // distribution as estimate(); kept for the Sec. IV-B ablation (the merged
  // execution is much faster because it shares set operations and has
  // better locality) and as a cross-check in tests.
  EstimateResult estimate_independent(const DynamicGraph& graph,
                                      const EdgeBatch& batch,
                                      Rng& rng) const;

  // The paper's iterative refinement (end of Sec. IV-A): start from a small
  // M, estimate, plug the smallest estimated frequency of interest into
  // Eq. 5 as C_y, and re-estimate with a larger M until the bound is
  // satisfied (or max_walks is reached). `alpha` is the frequency-gap
  // parameter and `confidence` the target ranking confidence δ.
  EstimateResult estimate_adaptive(const DynamicGraph& graph,
                                   const EdgeBatch& batch, Rng& rng,
                                   double alpha = 1.0,
                                   double confidence = 0.9) const;

  // The paper's default M (Sec. VI-A "Settings"), clamped to
  // [min_walks, max_walks].
  static std::uint64_t default_num_walks(std::uint64_t delta_edges,
                                         std::uint32_t max_degree,
                                         std::uint32_t pattern_size,
                                         std::uint64_t min_walks,
                                         std::uint64_t max_walks);

  // Minimum M for ranking confidence delta given frequency gap alpha and
  // the smallest frequency of interest C_y (paper Eq. 5).
  static double min_walks_for_confidence(std::uint64_t delta_edges,
                                         std::uint32_t max_degree,
                                         std::uint32_t pattern_size,
                                         double alpha, double delta,
                                         double c_y);

 private:
  QueryGraph query_;
  std::vector<MatchPlan> plans_;
  EstimatorOptions options_;
};

}  // namespace gcsm
