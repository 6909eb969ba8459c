#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/frequency_estimator.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "util/stats.hpp"

namespace gcsm {
namespace {

// Ground-truth access counts: run the exact incremental matching through a
// CountingPolicy.
std::vector<std::uint64_t> true_access_counts(const DynamicGraph& graph,
                                              const EdgeBatch& batch,
                                              const QueryGraph& q) {
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(q, exec);
  CountingPolicy policy(graph);
  gpusim::TrafficCounters c;
  engine.match_batch(const_cast<DynamicGraph&>(graph), batch, policy, c);
  return policy.access_counts();
}

struct Fixture {
  Fixture(int seed, VertexId n, std::uint32_t attach, std::size_t batch_size) {
    Rng rng(seed);
    graph_csr = generate_barabasi_albert(n, attach, 1, rng);
    UpdateStreamOptions opt;
    opt.pool_edge_count = batch_size;
    opt.batch_size = batch_size;
    opt.seed = seed + 1;
    stream = make_update_stream(graph_csr, opt);
    graph = std::make_unique<DynamicGraph>(stream.initial);
    graph->apply_batch(stream.batches[0]);
  }

  CsrGraph graph_csr;
  UpdateStream stream;
  std::unique_ptr<DynamicGraph> graph;
};

TEST(Estimator, DefaultWalkCountFollowsPaperFormulaWithinWindow) {
  // M = |dE| * D^(n-2) / 32^n, clamped into [64|dE|, |dE|*max(D/4, 64)].
  // D = 512, n = 5: formula = |dE| * 512^3 / 32^5 = 4|dE| -> below the
  // floor, so the floor wins.
  EXPECT_EQ(FrequencyEstimator::default_num_walks(1000, 512, 5, 1, 1ull << 40),
            64000u);
  // D = 1024, n = 5: formula = 32|dE| -> still floored at 64|dE|.
  EXPECT_EQ(
      FrequencyEstimator::default_num_walks(1000, 1024, 5, 1, 1ull << 40),
      64000u);
  // D = 2048, n = 5: formula = 256|dE| -> within [64|dE|, 512|dE|]: exact.
  EXPECT_EQ(
      FrequencyEstimator::default_num_walks(1000, 2048, 5, 1, 1ull << 40),
      256000u);
  // n = 7 explodes -> capped at |dE| * D/4.
  EXPECT_EQ(
      FrequencyEstimator::default_num_walks(1000, 2048, 7, 1, 1ull << 40),
      512000u);
  // Global clamps still dominate.
  EXPECT_EQ(FrequencyEstimator::default_num_walks(1u << 20, 10000, 7, 512,
                                                  4096),
            4096u);
}

TEST(Estimator, ConfidenceBoundMatchesEq5) {
  // Direct evaluation of Eq. 5.
  const double m = FrequencyEstimator::min_walks_for_confidence(
      100, 8, 4, 1.0, 0.5, 50.0);
  const double expect = 3.0 * 3.0 * 100 * 8 * 8 / (1.0 * 0.5 * 50.0);
  EXPECT_NEAR(m, expect, 1e-9);
}

TEST(Estimator, ZeroFrequencyForUntouchedVertices) {
  Fixture f(42, 400, 3, 64);
  FrequencyEstimator est(make_triangle(), {.num_walks = 2048});
  Rng rng(7);
  const EstimateResult r = est.estimate(*f.graph, f.stream.batches[0], rng);
  ASSERT_EQ(r.frequency.size(),
            static_cast<std::size_t>(f.graph->num_vertices()));
  // The estimate must be nonnegative everywhere and positive somewhere.
  double total = 0;
  for (const double v : r.frequency) {
    ASSERT_GE(v, 0.0);
    total += v;
  }
  EXPECT_GT(total, 0.0);
  EXPECT_GT(r.nodes_visited, 0u);
  EXPECT_EQ(r.walks, 2048u);
}

TEST(Estimator, UnbiasedTotalEstimate) {
  // E[sum of estimated frequencies] should match the true total access
  // count. Average many independent estimates and compare.
  Fixture f(13, 150, 3, 32);
  const QueryGraph q = make_triangle();
  const auto truth = true_access_counts(*f.graph, f.stream.batches[0], q);
  const double true_total = static_cast<double>(
      std::accumulate(truth.begin(), truth.end(), std::uint64_t{0}));
  ASSERT_GT(true_total, 0.0);

  FrequencyEstimator est(q, {.num_walks = 4096});
  RunningStats totals;
  for (int rep = 0; rep < 30; ++rep) {
    Rng rng(1000 + rep);
    const EstimateResult r = est.estimate(*f.graph, f.stream.batches[0], rng);
    totals.add(std::accumulate(r.frequency.begin(), r.frequency.end(), 0.0));
  }
  // Within 3 standard errors of the truth.
  const double sem = totals.stddev() / std::sqrt(30.0);
  EXPECT_NEAR(totals.mean(), true_total, 3 * sem + 0.05 * true_total);
}

TEST(Estimator, RanksHotVerticesHighly) {
  // Fig. 15b's property: the estimator's top-k has high overlap with the
  // true top-k access set on a skewed graph.
  Fixture f(77, 800, 4, 128);
  const QueryGraph q = make_pattern(1);
  const auto truth = true_access_counts(*f.graph, f.stream.batches[0], q);

  FrequencyEstimator est(q, {.num_walks = 1 << 15});
  Rng rng(5);
  const EstimateResult r = est.estimate(*f.graph, f.stream.batches[0], rng);

  const std::size_t nonzero = static_cast<std::size_t>(
      std::count_if(truth.begin(), truth.end(),
                    [](std::uint64_t c) { return c > 0; }));
  ASSERT_GT(nonzero, 20u);
  const std::size_t k = std::max<std::size_t>(5, nonzero / 20);  // top 5%
  EXPECT_GE(topk_coverage(truth, r.frequency, k), 0.6);
}

TEST(Estimator, MoreWalksReduceVariance) {
  Fixture f(21, 200, 3, 32);
  const QueryGraph q = make_triangle();
  auto spread = [&](std::uint64_t walks) {
    FrequencyEstimator est(q, {.num_walks = walks});
    RunningStats s;
    for (int rep = 0; rep < 20; ++rep) {
      Rng rng(3000 + rep);
      const EstimateResult r =
          est.estimate(*f.graph, f.stream.batches[0], rng);
      s.add(std::accumulate(r.frequency.begin(), r.frequency.end(), 0.0));
    }
    return s.variance();
  };
  // 16x the walks should cut variance by roughly 16x; allow 3x slack.
  EXPECT_LT(spread(8192), spread(512) / 3.0);
}

TEST(Estimator, DeterministicGivenRngState) {
  Fixture f(99, 120, 3, 16);
  FrequencyEstimator est(make_triangle(), {.num_walks = 1024});
  Rng r1(11);
  Rng r2(11);
  const auto a = est.estimate(*f.graph, f.stream.batches[0], r1);
  const auto b = est.estimate(*f.graph, f.stream.batches[0], r2);
  EXPECT_EQ(a.frequency, b.frequency);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
}

TEST(Estimator, IndependentWalksAgreeWithMergedInExpectation) {
  // Sec. IV-B claims the merged binomial execution is equivalent to M
  // independent walks; the two implementations must produce statistically
  // equal totals.
  Fixture f(55, 120, 3, 24);
  const QueryGraph q = make_triangle();
  FrequencyEstimator est(q, {.num_walks = 2048});
  RunningStats merged_totals, indep_totals;
  for (int rep = 0; rep < 12; ++rep) {
    Rng r1(4000 + rep);
    Rng r2(5000 + rep);
    const auto m = est.estimate(*f.graph, f.stream.batches[0], r1);
    const auto ind =
        est.estimate_independent(*f.graph, f.stream.batches[0], r2);
    merged_totals.add(
        std::accumulate(m.frequency.begin(), m.frequency.end(), 0.0));
    indep_totals.add(
        std::accumulate(ind.frequency.begin(), ind.frequency.end(), 0.0));
  }
  const double sem =
      std::sqrt(merged_totals.variance() / 12 + indep_totals.variance() / 12);
  EXPECT_NEAR(merged_totals.mean(), indep_totals.mean(),
              4 * sem + 0.05 * merged_totals.mean());
}

TEST(Estimator, MergedIsCheaperThanIndependentAtEqualWalks) {
  Fixture f(56, 200, 4, 48);
  const QueryGraph q = make_pattern(1);
  FrequencyEstimator est(q, {.num_walks = 8192});
  Rng r1(1);
  Rng r2(1);
  const auto merged = est.estimate(*f.graph, f.stream.batches[0], r1);
  const auto indep =
      est.estimate_independent(*f.graph, f.stream.batches[0], r2);
  // Merged execution shares set operations across walks.
  EXPECT_LT(merged.ops, indep.ops / 2);
}

TEST(Estimator, AdaptiveRespectsMaxWalks) {
  Fixture f(57, 100, 3, 16);
  EstimatorOptions opt;
  opt.min_walks = 256;
  opt.max_walks = 4096;
  FrequencyEstimator est(make_triangle(), opt);
  Rng rng(9);
  const EstimateResult r =
      est.estimate_adaptive(*f.graph, f.stream.batches[0], rng);
  EXPECT_GE(r.walks, 256u);
  EXPECT_LE(r.walks, 4096u);
  double total = 0;
  for (const double v : r.frequency) total += v;
  EXPECT_GT(total, 0.0);
}

TEST(Estimator, DefaultWalksHonorsCostCap) {
  // |dE| * D / 4 caps the formula when D^(n-2) explodes.
  const std::uint64_t m = FrequencyEstimator::default_num_walks(
      4096, 10000, 7, 1, ~0ull >> 1);
  EXPECT_EQ(m, 4096ull * 10000 / 4);
}

// FNV-1a over the bit pattern of every entry, so a pin on it pins the exact
// doubles, not an approximation.
std::uint64_t bit_digest(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : values) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

// Golden pins of both estimators on one fixed seed: the charged ops, the
// sampled tree size and the exact frequency vector. A change to the
// candidate step, the bind check, the seed order or the RNG draw order
// moves at least one of them.
TEST(Estimator, GoldenMergedAndIndependentPinned) {
  Rng gen(404);
  const CsrGraph base = generate_barabasi_albert(300, 4, 2, gen);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 96;
  opt.batch_size = 96;
  opt.seed = 405;
  const UpdateStream stream = make_update_stream(base, opt);
  DynamicGraph graph(stream.initial);
  graph.apply_batch(stream.batches[0]);
  const FrequencyEstimator est(with_round_robin_labels(make_pattern(2), 2),
                               {.num_walks = 4096});

  Rng r1(7);
  const EstimateResult merged = est.estimate(graph, stream.batches[0], r1);
  EXPECT_EQ(merged.walks, 4096u);
  EXPECT_EQ(merged.nodes_visited, 748u);
  EXPECT_EQ(merged.ops, 54439u);
  EXPECT_EQ(bit_digest(merged.frequency), 2086026389087513363ull);

  Rng r2(7);
  const EstimateResult indep =
      est.estimate_independent(graph, stream.batches[0], r2);
  EXPECT_EQ(indep.walks, 4096u);
  EXPECT_EQ(indep.nodes_visited, 29368u);
  EXPECT_EQ(indep.ops, 1278082u);
  EXPECT_EQ(bit_digest(indep.frequency), 16918750397418892051ull);
}

TEST(Estimator, EmptyBatchYieldsZeroEstimate) {
  Fixture f(15, 100, 3, 16);
  f.graph->reorganize();
  EdgeBatch empty;
  f.graph->apply_batch(empty);
  FrequencyEstimator est(make_triangle(), {.num_walks = 256});
  Rng rng(1);
  const EstimateResult r = est.estimate(*f.graph, empty, rng);
  for (const double v : r.frequency) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(r.nodes_visited, 0u);
}

}  // namespace
}  // namespace gcsm
