#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/binomial.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace gcsm {
namespace {

// ---------------------------------------------------------------- Rng -----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.bounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(99);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::vector<int> hist(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++hist[rng.bounded(kBound)];
  for (const int h : hist) {
    EXPECT_NEAR(h, kDraws / kBound, kDraws / kBound * 0.15);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng base(42);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (s1.next() == s2.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedResetsSequence) {
  Rng rng(9);
  const std::uint64_t first = rng.next();
  rng.next();
  rng.reseed(9);
  EXPECT_EQ(rng.next(), first);
}

// ----------------------------------------------------------- binomial -----

TEST(Binomial, DegenerateCases) {
  Rng rng(1);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100u);
  EXPECT_EQ(binomial(rng, 100, -0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.5), 100u);
}

TEST(Binomial, NeverExceedsTrials) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(binomial(rng, 13, 0.7), 13u);
  }
}

struct BinomialCase {
  std::uint64_t n;
  double p;
};

// The fields, not gtest's byte dump, so the ctest names stay short.
void PrintTo(const BinomialCase& c, std::ostream* os) {
  *os << '{' << c.n << ',' << c.p << '}';
}

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Rng rng(1234 + n);
  RunningStats stats;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) {
    stats.add(static_cast<double>(binomial(rng, n, p)));
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1 - p);
  EXPECT_NEAR(stats.mean(), mean, 4 * std::sqrt(var / draws) + 1e-9);
  EXPECT_NEAR(stats.variance(), var, 0.08 * var + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialMoments,
    ::testing::Values(BinomialCase{1, 0.5}, BinomialCase{10, 0.1},
                      BinomialCase{10, 0.9}, BinomialCase{100, 0.02},
                      BinomialCase{100, 0.5}, BinomialCase{1000, 0.3},
                      BinomialCase{100000, 0.001},
                      BinomialCase{100000, 0.4}),
    [](const ::testing::TestParamInfo<BinomialCase>& info) {
      std::ostringstream name;
      name << "n" << info.param.n << "_p" << info.param.p;
      std::string out = name.str();
      std::replace(out.begin(), out.end(), '.', '_');
      return out;
    });

TEST(Binomial, TinyProbabilityMostlyZero) {
  Rng rng(77);
  int nonzero = 0;
  for (int i = 0; i < 10000; ++i) {
    if (binomial(rng, 1000, 1e-6) > 0) ++nonzero;
  }
  // E[nonzero] ~ 10000 * (1 - (1-1e-6)^1000) ~ 10.
  EXPECT_LT(nonzero, 40);
}

TEST(Binomial, InversionMatchesBtrsDistribution) {
  // Same (n, p) sampled by both internal algorithms should produce
  // statistically equal moments (n*p inside the BTRS regime).
  Rng r1(5);
  Rng r2(6);
  const std::uint64_t n = 64;
  const double p = 0.25;
  RunningStats a, b;
  for (int i = 0; i < 30000; ++i) {
    a.add(static_cast<double>(detail::binomial_inversion(r1, n, p)));
    b.add(static_cast<double>(detail::binomial_btrs(r2, n, p)));
  }
  EXPECT_NEAR(a.mean(), b.mean(), 0.15);
  EXPECT_NEAR(a.variance(), b.variance(), 0.8);
}

// --------------------------------------------------------- ThreadPool -----

TEST(ThreadPool, RunsBodyOnAllWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run_on_all([&](std::size_t id) { hits[id]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 10001;
  std::vector<std::atomic<int>> seen(kN);
  pool.parallel_for(kN, 7, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) seen[i]++;
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<bool> called{false};
  pool.parallel_for(0, 1, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called.load());
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, 10,
                      [&](std::size_t b, std::size_t e, std::size_t) {
                        total += static_cast<int>(e - b);
                      });
  }
  EXPECT_EQ(total.load(), 5000);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  int sum = 0;
  pool.parallel_for(10, 3, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

// -------------------------------------------------------------- stats -----

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(TopFractionShare, SkewedWeights) {
  // One heavy item out of 100 holding ~90% of the weight.
  std::vector<std::uint64_t> w(100, 1);
  w[42] = 900;
  EXPECT_NEAR(top_fraction_share(w, 0.01), 900.0 / 999.0, 1e-12);
  EXPECT_DOUBLE_EQ(top_fraction_share(w, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(top_fraction_share({}, 0.5), 0.0);
}

TEST(TopkCoverage, PerfectAndDisjoint) {
  std::vector<std::uint64_t> truth{100, 90, 80, 1, 1, 1};
  std::vector<double> est_good{99.0, 88.0, 77.0, 0.1, 0.1, 0.1};
  EXPECT_DOUBLE_EQ(topk_coverage(truth, est_good, 3), 1.0);
  std::vector<double> est_bad{0.1, 0.1, 0.1, 99.0, 88.0, 77.0};
  EXPECT_DOUBLE_EQ(topk_coverage(truth, est_bad, 3), 0.0);
}

// ---------------------------------------------------------------- cli -----

TEST(CliArgs, ParsesAllForms) {
  const char* argv[] = {"prog",    "--alpha=3",  "--beta", "7",
                        "--gamma", "positional", "--flag"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 7);
  EXPECT_EQ(args.get("gamma", ""), "positional");
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_FALSE(args.get_bool("absent"));
  EXPECT_EQ(args.get_int("absent", -5), -5);
}

TEST(CliArgs, DoubleAndDefaults) {
  const char* argv[] = {"prog", "--scale=0.25"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("other", 2.5), 2.5);
}

TEST(CliArgs, PositionalArguments) {
  const char* argv[] = {"prog", "one", "--x=1", "two"};
  CliArgs args(4, const_cast<char**>(argv));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

}  // namespace
}  // namespace gcsm
