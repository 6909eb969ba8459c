// Google-benchmark microbenchmarks for the library's primitives: sorted
// intersection (of id lists, and in place against a neighbor view as the
// candidate step does), binomial sampling, DCSR lookup, dynamic-graph
// updates, and the frequency estimator. These are the hot paths of the
// matching kernel and the Step-2/Step-5 host phases.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/dcsr_cache.hpp"
#include "core/frequency_estimator.hpp"
#include "core/intersect.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "util/binomial.hpp"
#include "util/rng.hpp"

namespace {

using namespace gcsm;

std::vector<VertexId> sorted_random(std::size_t n, VertexId range,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<VertexId>(rng.bounded(range)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void BM_IntersectBalanced(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = sorted_random(n, static_cast<VertexId>(4 * n), 1);
  const auto b = sorted_random(n, static_cast<VertexId>(4 * n), 2);
  std::vector<VertexId> out;
  for (auto _ : state) {
    intersect_sorted(a.data(), a.size(), b.data(), b.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectBalanced)->Arg(64)->Arg(1024)->Arg(16384);

void BM_IntersectSkewed(benchmark::State& state) {
  // Small list vs big list: the galloping path (hub-vertex case).
  const auto small = sorted_random(32, 1 << 20, 3);
  const auto big =
      sorted_random(static_cast<std::size_t>(state.range(0)), 1 << 20, 4);
  std::vector<VertexId> out;
  for (auto _ : state) {
    intersect_sorted(small.data(), small.size(), big.data(), big.size(),
                     out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectSkewed)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// The candidate step's in-place intersection of acc with a stored neighbor
// run (intersect_view_into), read where it lies. The step overwrites acc,
// so each iteration refills it from `a`; the time includes that copy.
void run_view_intersect(benchmark::State& state,
                        const std::vector<VertexId>& a,
                        const std::vector<VertexId>& run, ViewMode mode) {
  NeighborView view;
  view.mode = mode;
  view.prefix = {run.data(), static_cast<std::uint32_t>(run.size())};
  std::vector<VertexId> acc;
  std::vector<VertexId> tmp;
  acc.reserve(a.size());
  for (auto _ : state) {
    acc.assign(a.begin(), a.end());
    benchmark::DoNotOptimize(intersect_view_into(acc, view, tmp));
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + run.size()));
}

// `ids` with every `every`-th entry tombstoned.
std::vector<VertexId> with_tombstones(std::vector<VertexId> ids,
                                      std::size_t every) {
  for (std::size_t i = 0; i < ids.size(); i += every) {
    ids[i] = tombstone(ids[i]);
  }
  return ids;
}

void BM_IntersectViewBalancedOld(benchmark::State& state) {
  // The merge over a kOld view, whose tombstones (1%) read as live.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = sorted_random(n, static_cast<VertexId>(4 * n), 1);
  const auto b = with_tombstones(
      sorted_random(n, static_cast<VertexId>(4 * n), 2), 100);
  run_view_intersect(state, a, b, ViewMode::kOld);
}
BENCHMARK(BM_IntersectViewBalancedOld)->Arg(64)->Arg(1024)->Arg(16384);

void BM_IntersectViewSkewed(benchmark::State& state) {
  // 32 ids against a long kOld view: the gallop.
  const auto small = sorted_random(32, 1 << 20, 3);
  const auto big =
      sorted_random(static_cast<std::size_t>(state.range(0)), 1 << 20, 4);
  run_view_intersect(state, small, big, ViewMode::kOld);
}
BENCHMARK(BM_IntersectViewSkewed)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_IntersectViewTombstonedNew(benchmark::State& state) {
  // The merge over a kNew view that skips its 1% tombstones.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = sorted_random(n, static_cast<VertexId>(4 * n), 1);
  const auto b = with_tombstones(
      sorted_random(n, static_cast<VertexId>(4 * n), 2), 100);
  run_view_intersect(state, a, b, ViewMode::kNew);
}
BENCHMARK(BM_IntersectViewTombstonedNew)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BinomialSmallP(benchmark::State& state) {
  Rng rng(5);
  const double p = 1.0 / static_cast<double>(state.range(0));
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc += binomial(rng, 1 << 16, p);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_BinomialSmallP)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_DcsrLookup(benchmark::State& state) {
  Rng rng(6);
  const CsrGraph csr = generate_barabasi_albert(
      static_cast<VertexId>(state.range(0)), 8, 1, rng);
  DynamicGraph graph(csr);
  gpusim::Device device;
  gpusim::TrafficCounters ctr;
  DcsrCache cache;
  std::vector<VertexId> all(static_cast<std::size_t>(graph.num_vertices()));
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<VertexId>(i);
  }
  cache.build(graph, all, 1ull << 30, device, ctr);
  VertexId probe = 0;
  std::uint32_t steps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(probe, ViewMode::kNew, steps));
    probe = (probe + 7919) % graph.num_vertices();
  }
}
BENCHMARK(BM_DcsrLookup)->Arg(1 << 12)->Arg(1 << 16);

void BM_ApplyAndReorganize(benchmark::State& state) {
  Rng rng(7);
  const CsrGraph csr = generate_barabasi_albert(20000, 8, 1, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_fraction = 0.5;
  opt.batch_size = static_cast<std::size_t>(state.range(0));
  opt.seed = 8;
  const UpdateStream stream = make_update_stream(csr, opt);
  std::size_t i = 0;
  DynamicGraph graph(stream.initial);
  for (auto _ : state) {
    if (i >= stream.batches.size()) {
      state.PauseTiming();
      graph = DynamicGraph(stream.initial);
      i = 0;
      state.ResumeTiming();
    }
    graph.apply_batch(stream.batches[i++]);
    graph.reorganize();
  }
  state.SetItemsProcessed(state.iterations() * opt.batch_size);
}
BENCHMARK(BM_ApplyAndReorganize)->Arg(256)->Arg(4096);

void BM_FrequencyEstimator(benchmark::State& state) {
  Rng rng(9);
  const CsrGraph csr = generate_barabasi_albert(20000, 8, 1, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 1024;
  opt.batch_size = 1024;
  opt.seed = 10;
  const UpdateStream stream = make_update_stream(csr, opt);
  DynamicGraph graph(stream.initial);
  graph.apply_batch(stream.batches[0]);
  FrequencyEstimator est(
      make_pattern(1),
      {.num_walks = static_cast<std::uint64_t>(state.range(0))});
  Rng walk_rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        est.estimate(graph, stream.batches[0], walk_rng));
  }
}
BENCHMARK(BM_FrequencyEstimator)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
