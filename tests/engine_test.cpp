#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/dcsr_cache.hpp"
#include "core/gpu_engine.hpp"
#include "core/intersect.hpp"
#include "core/list_ref.hpp"
#include "core/rapidflow_like.hpp"
#include "core/reference_matcher.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/automorphism.hpp"
#include "query/patterns.hpp"
#include "shard/sharded_graph.hpp"
#include "shard/sharded_matcher.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gcsm {
namespace {

// ----------------------------------------------------------- intersect ----

TEST(Intersect, BasicOverlap) {
  const std::vector<VertexId> a{1, 3, 5, 7, 9};
  const std::vector<VertexId> b{2, 3, 4, 7, 10};
  std::vector<VertexId> out;
  intersect_sorted(a.data(), a.size(), b.data(), b.size(), out);
  EXPECT_EQ(out, (std::vector<VertexId>{3, 7}));
}

TEST(Intersect, EmptyInputs) {
  const std::vector<VertexId> a{1, 2, 3};
  std::vector<VertexId> out{99};
  intersect_sorted(a.data(), a.size(), nullptr, 0, out);
  EXPECT_TRUE(out.empty());
  intersect_sorted(nullptr, 0, a.data(), a.size(), out);
  EXPECT_TRUE(out.empty());
}

TEST(Intersect, GallopingPathMatchesMergePath) {
  Rng rng(21);
  // Short list vs very long list triggers galloping; cross-check with the
  // trivially correct std::set_intersection.
  std::vector<VertexId> big;
  for (VertexId v = 0; v < 10000; v += 3) big.push_back(v);
  std::vector<VertexId> small{3, 999, 1000, 5001, 9999};
  std::vector<VertexId> expect;
  std::set_intersection(small.begin(), small.end(), big.begin(), big.end(),
                        std::back_inserter(expect));
  std::vector<VertexId> out;
  intersect_sorted(small.data(), small.size(), big.data(), big.size(), out);
  EXPECT_EQ(out, expect);
  // Symmetric order.
  intersect_sorted(big.data(), big.size(), small.data(), small.size(), out);
  EXPECT_EQ(out, expect);
}

TEST(Intersect, IntersectIntoMatchesFresh) {
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    std::set<VertexId> sa, sb;
    for (int i = 0; i < 60; ++i) {
      sa.insert(static_cast<VertexId>(rng.bounded(120)));
      sb.insert(static_cast<VertexId>(rng.bounded(120)));
    }
    std::vector<VertexId> a(sa.begin(), sa.end());
    const std::vector<VertexId> b(sb.begin(), sb.end());
    std::vector<VertexId> expect;
    intersect_sorted(a.data(), a.size(), b.data(), b.size(), expect);
    intersect_into(a, b.data(), b.size());
    EXPECT_EQ(a, expect);
  }
}

TEST(Intersect, IntersectIntoEmptyOther) {
  std::vector<VertexId> acc{1, 2, 3};
  intersect_into(acc, nullptr, 0);
  EXPECT_TRUE(acc.empty());
}

// The candidate step's in-place view intersection against its definition,
// materialize_view into b and then intersect_into(acc, b): the same
// survivors and the same ops. Seeded and capped at half a second. The first
// kCombos trials walk every combination of view mode, tombstones (none,
// some, all), appended run, acc placement (overlapping, wholly before the
// view's first live id, wholly past its last) and |acc| (the largest that
// gallops, the smallest that merges, an empty view, random).
TEST(Intersect, ViewIntoMatchesMaterializeThenIntersect) {
  constexpr int kCombos = 2 * 3 * 2 * 3 * 4;
  constexpr VertexId kBase = 1 << 20;  // room below the view for acc
  Rng rng(2323);
  const Timer timer;
  std::vector<VertexId> tmp;  // reused across steps, as in the kernel
  for (int trial = 0;
       trial < 4000 && (trial < kCombos || timer.seconds() < 0.5); ++trial) {
    const int combo = trial % kCombos;
    const bool old_mode = combo % 2 == 0;
    const int dead_kind = combo / 2 % 3;
    const bool with_appended = combo / 6 % 2 == 1;
    const int placement = combo / 12 % 3;
    const int size_kind = combo / 36;
    const bool empty_view = size_kind == 2;

    // The stored list: a prefix sorted by decoded id with tombstones
    // encoded, and for kNew an appended run of ids not live in the prefix
    // (new ones and re-inserted tombstones).
    const std::size_t np = empty_view ? 0 : 1 + rng.bounded(1500);
    const auto span = static_cast<VertexId>(3 * np + 16);
    std::set<VertexId> ids;
    while (ids.size() < np) {
      ids.insert(kBase + static_cast<VertexId>(rng.bounded(span)));
    }
    const double p_dead = dead_kind == 0 ? 0.0 : dead_kind == 1 ? 0.3 : 1.0;
    std::vector<VertexId> prefix;
    std::set<VertexId> live;
    for (const VertexId v : ids) {
      const bool dead = rng.bernoulli(p_dead);
      prefix.push_back(dead ? tombstone(v) : v);
      if (old_mode || !dead) live.insert(v);
    }
    std::vector<VertexId> appended;
    if (!old_mode && with_appended && !empty_view) {
      std::set<VertexId> extra;
      for (std::size_t k = 0; k < np / 2 + 1; ++k) {
        const VertexId v = kBase + static_cast<VertexId>(rng.bounded(span));
        if (live.count(v) == 0) extra.insert(v);
      }
      appended.assign(extra.begin(), extra.end());
      live.insert(extra.begin(), extra.end());
    }
    NeighborView view;
    view.mode = old_mode ? ViewMode::kOld : ViewMode::kNew;
    view.prefix = {prefix.data(), static_cast<std::uint32_t>(prefix.size())};
    view.appended = {appended.data(),
                     static_cast<std::uint32_t>(appended.size())};

    std::vector<VertexId> b;
    materialize_view(view, b);
    ASSERT_EQ(b, std::vector<VertexId>(live.begin(), live.end()))
        << "trial " << trial;

    const std::size_t nl = b.size();
    std::size_t na = 0;
    if (size_kind == 0) {
      na = nl > 32 ? (nl - 1) / 32 : 1;  // |acc|·32 < |live(b)|
    } else if (size_kind == 1) {
      na = (nl + 31) / 32;  // |acc|·32 >= |live(b)|
    } else {
      na = rng.bounded(65);
    }
    const VertexId first = nl > 0 ? b.front() : kBase;
    const VertexId last = nl > 0 ? b.back() : kBase + span;
    const auto reach = static_cast<VertexId>(4 * na + 8);
    std::set<VertexId> acc_ids;
    while (acc_ids.size() < na) {
      const auto r = static_cast<VertexId>(rng.bounded(reach)) + 1;
      if (placement == 1) {
        acc_ids.insert(first - r);
      } else if (placement == 2) {
        acc_ids.insert(last + r);
      } else if (nl > 0 && rng.bounded(2) == 0) {
        acc_ids.insert(b[rng.bounded(nl)]);
      } else {
        acc_ids.insert(kBase +
                       static_cast<VertexId>(rng.bounded(span + reach)));
      }
    }

    std::vector<VertexId> expect(acc_ids.begin(), acc_ids.end());
    std::vector<VertexId> got = expect;
    const std::uint64_t expect_ops =
        nl + intersect_into(expect, b.data(), b.size());
    const std::uint64_t got_ops = intersect_view_into(got, view, tmp);
    ASSERT_EQ(got, expect) << "trial " << trial;
    ASSERT_EQ(got_ops, expect_ops) << "trial " << trial;
  }
}

// ------------------------------------------------------------ DCSR --------

class DcsrTest : public ::testing::Test {
 protected:
  DcsrTest()
      : graph_(CsrGraph::from_edges(
            6, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}})) {}

  DynamicGraph graph_;
  gpusim::Device device_;
  gpusim::TrafficCounters counters_;
};

TEST_F(DcsrTest, RoundTripsViewsAfterBatch) {
  EdgeBatch batch;
  batch.updates.push_back({0, 3, +1});
  batch.updates.push_back({1, 2, -1});
  graph_.apply_batch(batch);

  DcsrCache cache;
  cache.build(graph_, {0, 1, 2, 3}, 1 << 20, device_, counters_);
  EXPECT_EQ(cache.num_cached(), 4u);

  for (const VertexId v : {0, 1, 2, 3}) {
    for (const ViewMode mode : {ViewMode::kOld, ViewMode::kNew}) {
      std::uint32_t steps = 0;
      const auto cached = cache.lookup(v, mode, steps);
      ASSERT_TRUE(cached.has_value());
      std::vector<VertexId> from_cache, from_graph;
      materialize_view(*cached, from_cache);
      materialize_view(graph_.view(v, mode), from_graph);
      EXPECT_EQ(from_cache, from_graph) << "v=" << v;
    }
  }
}

TEST_F(DcsrTest, MissReturnsNullopt) {
  DcsrCache cache;
  cache.build(graph_, {1, 3}, 1 << 20, device_, counters_);
  std::uint32_t steps = 0;
  EXPECT_FALSE(cache.lookup(0, ViewMode::kNew, steps).has_value());
  EXPECT_FALSE(cache.lookup(5, ViewMode::kNew, steps).has_value());
  EXPECT_TRUE(cache.lookup(3, ViewMode::kNew, steps).has_value());
}

TEST_F(DcsrTest, BudgetDropsLowPriorityVertices) {
  // Priority order: 3 first. Budget that fits only a couple of lists.
  DcsrCache cache;
  const std::uint64_t tiny =
      graph_.list_bytes(3) + 3 * (sizeof(VertexId) + 16);
  cache.build(graph_, {3, 0, 1, 2, 4, 5}, tiny, device_, counters_);
  EXPECT_GE(cache.num_cached(), 1u);
  std::uint32_t steps = 0;
  EXPECT_TRUE(cache.lookup(3, ViewMode::kNew, steps).has_value());
  EXPECT_LT(cache.num_cached(), 6u);
}

TEST_F(DcsrTest, SingleDmaTransaction) {
  DcsrCache cache;
  cache.build(graph_, {0, 1, 2, 3, 4, 5}, 1 << 20, device_, counters_);
  const auto t = counters_.snapshot();
  EXPECT_EQ(t.dma_calls, 1u);
  EXPECT_EQ(t.dma_bytes, cache.blob_bytes());
}

TEST_F(DcsrTest, DeduplicatesInput) {
  DcsrCache cache;
  cache.build(graph_, {2, 2, 2, 1}, 1 << 20, device_, counters_);
  EXPECT_EQ(cache.num_cached(), 2u);
}

TEST_F(DcsrTest, EmptySelection) {
  DcsrCache cache;
  cache.build(graph_, {}, 1 << 20, device_, counters_);
  EXPECT_TRUE(cache.empty());
  std::uint32_t steps = 0;
  EXPECT_FALSE(cache.lookup(0, ViewMode::kNew, steps).has_value());
}

// -------------------------------------------------------- policies --------

TEST(AccessPolicy, ZeroCopyChargesLines) {
  DynamicGraph g(CsrGraph::from_edges(3, {{0, 1}, {0, 2}}));
  gpusim::SimParams params;
  ZeroCopyPolicy policy(g, params);
  gpusim::Traffic t;
  policy.fetch(0, ViewMode::kNew, t);
  EXPECT_GE(t.zero_copy_lines, 1u);
  EXPECT_EQ(t.zero_copy_bytes, 2 * sizeof(VertexId));
  EXPECT_EQ(t.device_bytes, 0u);
}

TEST(AccessPolicy, CachedHitUsesDeviceMissFallsBack) {
  DynamicGraph g(CsrGraph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}));
  gpusim::Device device;
  gpusim::TrafficCounters build_c;
  DcsrCache cache;
  cache.build(g, {0}, 1 << 20, device, build_c);

  gpusim::SimParams params;
  CachedPolicy policy(g, cache, params);
  gpusim::Traffic t;
  policy.fetch(0, ViewMode::kNew, t);  // hit
  EXPECT_EQ(t.cache_hits, 1u);
  EXPECT_EQ(t.zero_copy_lines, 0u);
  EXPECT_GT(t.device_bytes, 0u);

  policy.fetch(1, ViewMode::kNew, t);  // miss
  EXPECT_EQ(t.cache_misses, 1u);
  EXPECT_GE(t.zero_copy_lines, 1u);
}

TEST(AccessPolicy, UnifiedMemoryFaultsOnceThenHits) {
  DynamicGraph g(CsrGraph::from_edges(3, {{0, 1}, {0, 2}}));
  gpusim::SimParams params;
  UnifiedMemoryPolicy policy(g, params);
  gpusim::Traffic t;
  policy.fetch(0, ViewMode::kNew, t);
  policy.fetch(0, ViewMode::kNew, t);
  EXPECT_GE(t.um_faults, 1u);
  EXPECT_GE(t.um_hits, 1u);
}

TEST(AccessPolicy, CountingPolicyRecordsPerVertexCounts) {
  DynamicGraph g(CsrGraph::from_edges(3, {{0, 1}, {1, 2}}));
  CountingPolicy policy(g);
  gpusim::Traffic t;
  policy.fetch(1, ViewMode::kNew, t);
  policy.fetch(1, ViewMode::kOld, t);
  policy.fetch(2, ViewMode::kNew, t);
  const auto counts = policy.access_counts();
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
}

// ---------------------------------------------------- cache selection -----

TEST(CacheSelection, ByFrequencyDescendingPositiveOnly) {
  const std::vector<double> freq{0.0, 5.0, 2.0, 0.0, 9.0};
  const auto sel = select_by_frequency(freq);
  EXPECT_EQ(sel, (std::vector<VertexId>{4, 1, 2}));
}

TEST(CacheSelection, ByDegreeDescending) {
  DynamicGraph g(CsrGraph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}));
  const auto sel = select_by_degree(g);
  ASSERT_EQ(sel.size(), 4u);
  EXPECT_EQ(sel[0], 0);  // degree 3
  EXPECT_EQ(sel[3], 3);  // degree 1
}

TEST(CacheSelection, KhopCoversNeighborhood) {
  // Path 0-1-2-3-4; batch touches edge (0,1).
  DynamicGraph g(CsrGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
  EdgeBatch batch;
  batch.updates.push_back({0, 1, -1});
  const auto k0 = khop_vertices(g, batch, 0);
  EXPECT_EQ(std::set<VertexId>(k0.begin(), k0.end()),
            (std::set<VertexId>{0, 1}));
  const auto k1 = khop_vertices(g, batch, 1);
  EXPECT_EQ(std::set<VertexId>(k1.begin(), k1.end()),
            (std::set<VertexId>{0, 1, 2}));
  const auto k3 = khop_vertices(g, batch, 3);
  EXPECT_EQ(std::set<VertexId>(k3.begin(), k3.end()),
            (std::set<VertexId>{0, 1, 2, 3, 4}));
}

// -------------------------------------------- engine vs reference ---------

class EngineVsReference : public ::testing::TestWithParam<int> {};

TEST_P(EngineVsReference, FullMatchCountsAgree) {
  Rng rng(100 + GetParam());
  const CsrGraph g = generate_erdos_renyi(60, 240, 3, rng);
  DynamicGraph dyn(g);
  const QueryGraph q = make_pattern(GetParam());

  gpusim::SimtExecutor exec(2);
  MatchEngine engine(q, exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;
  const MatchStats stats = engine.match_full(dyn, policy, c);
  EXPECT_EQ(stats.positive, reference_count_embeddings(g, q))
      << "pattern " << q.name();
  EXPECT_EQ(stats.negative, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, EngineVsReference,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Engine, TriangleCountOnKnownGraph) {
  // K4 has 4 triangles = 24 embeddings.
  const CsrGraph k4 =
      CsrGraph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  DynamicGraph dyn(k4);
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(make_triangle(), exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;
  EXPECT_EQ(engine.match_full(dyn, policy, c).positive, 24u);
  EXPECT_EQ(count_automorphisms(make_triangle()), 6u);  // 24/6 = 4 triangles
}

TEST(Engine, LabelsRestrictMatches) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}},
                                          {0, 0, 1});
  DynamicGraph dyn(g);
  const QueryGraph labeled =
      QueryGraph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}}, {0, 0, 1});
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(labeled, exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;
  // Query vertex 2 must map to data vertex 2; vertices 0,1 to {0,1}: 2 ways.
  EXPECT_EQ(engine.match_full(dyn, policy, c).positive, 2u);
}

// --------------------------------------- incremental delta identity -------

// The central correctness property: for any batch, the signed incremental
// count equals full(G_{k+1}) - full(G_k).
void check_incremental_identity(const CsrGraph& initial,
                                const std::vector<EdgeBatch>& batches,
                                const QueryGraph& q, std::uint64_t seed) {
  (void)seed;
  DynamicGraph dyn(initial);
  gpusim::SimtExecutor exec(2);
  MatchEngine engine(q, exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;

  std::int64_t expected =
      static_cast<std::int64_t>(reference_count_embeddings(initial, q));

  for (const EdgeBatch& batch : batches) {
    dyn.apply_batch(batch);
    const MatchStats stats = engine.match_batch(dyn, batch, policy, c);
    expected += stats.signed_embeddings;
    dyn.reorganize();
    const std::int64_t actual = static_cast<std::int64_t>(
        reference_count_embeddings(dyn.to_csr(), q));
    ASSERT_EQ(actual, expected)
        << "drift after batch for pattern " << q.name();
  }
}

TEST(Incremental, IdentityOnFig1Example) {
  // The paper's running example (Fig. 1): data graph G_0 with one diamond
  // match; inserting edges creates a second one.
  const QueryGraph q = make_fig1_diamond();
  const CsrGraph g0 = CsrGraph::from_edges(
      7, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {4, 5}, {4, 6}, {5, 6}});
  EdgeBatch batch;
  batch.updates.push_back({5, 3, +1});
  batch.updates.push_back({6, 3, +1});
  check_incremental_identity(g0, {batch}, q, 0);
}

TEST(Incremental, IdentitySmallRandomGraphsAllPatterns) {
  for (int p = 1; p <= 6; ++p) {
    Rng rng(500 + p);
    const CsrGraph g = generate_erdos_renyi(40, 160, 2, rng);
    UpdateStreamOptions opt;
    opt.pool_edge_count = 60;
    opt.batch_size = 20;
    opt.seed = 600 + p;
    const UpdateStream stream = make_update_stream(g, opt);
    check_incremental_identity(stream.initial, stream.batches,
                               make_pattern(p), 0);
  }
}

TEST(Incremental, IdentityTriangleDenseGraph) {
  Rng rng(700);
  const CsrGraph g = generate_erdos_renyi(30, 200, 1, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 80;
  opt.batch_size = 16;
  opt.seed = 701;
  const UpdateStream stream = make_update_stream(g, opt);
  check_incremental_identity(stream.initial, stream.batches, make_triangle(),
                             0);
}

TEST(Incremental, IdentityWithNewVertices) {
  const CsrGraph g0 = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}},
                                           {0, 0, 0, 0});
  DynamicGraph dyn(g0);
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(make_triangle(), exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;

  EdgeBatch batch;
  batch.new_vertex_labels.emplace_back(4, 0);
  batch.updates.push_back({3, 4, +1});
  batch.updates.push_back({0, 4, +1});
  batch.updates.push_back({0, 3, +1});
  batch.updates.push_back({3, 4, -1});  // would be invalid: inserted above
  batch.updates.pop_back();

  dyn.apply_batch(batch);
  const MatchStats stats = engine.match_batch(dyn, batch, policy, c);
  dyn.reorganize();
  const std::int64_t before =
      static_cast<std::int64_t>(reference_count_embeddings(g0, make_triangle()));
  const std::int64_t after = static_cast<std::int64_t>(
      reference_count_embeddings(dyn.to_csr(), make_triangle()));
  EXPECT_EQ(before + stats.signed_embeddings, after);
  EXPECT_GT(stats.positive, 0u);  // triangle 0-3-4 appeared
}

TEST(Incremental, PureDeletionBatch) {
  // K4 minus one edge loses embeddings.
  const CsrGraph k4 = CsrGraph::from_edges(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  DynamicGraph dyn(k4);
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(make_triangle(), exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;

  EdgeBatch batch;
  batch.updates.push_back({0, 1, -1});
  dyn.apply_batch(batch);
  const MatchStats stats = engine.match_batch(dyn, batch, policy, c);
  dyn.reorganize();
  // Triangles through edge (0,1): {0,1,2} and {0,1,3} -> 12 embeddings lost.
  EXPECT_EQ(stats.signed_embeddings, -12);
  EXPECT_EQ(stats.positive, 0u);
  EXPECT_EQ(stats.negative, 12u);
}

TEST(Incremental, MatchSinkReceivesSignedBindings) {
  const CsrGraph g0 = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  DynamicGraph dyn(g0);
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(make_triangle(), exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;

  EdgeBatch batch;
  batch.updates.push_back({0, 2, +1});  // completes the triangle
  dyn.apply_batch(batch);

  std::vector<int> signs;
  std::vector<std::set<VertexId>> bindings;
  MatchSink sink = [&](const MatchPlan&, std::span<const VertexId> b,
                       int sign) {
    signs.push_back(sign);
    bindings.emplace_back(b.begin(), b.end());
  };
  const MatchStats stats = engine.match_batch(dyn, batch, policy, c, &sink);
  EXPECT_EQ(stats.positive, static_cast<std::uint64_t>(signs.size()));
  // All six embeddings of the single new triangle {0,1,2}.
  EXPECT_EQ(signs.size(), 6u);
  for (const auto& b : bindings) {
    EXPECT_EQ(b, (std::set<VertexId>{0, 1, 2}));
  }
}

// --------------------------------- engine across all access policies ------

TEST(Engine, AllPoliciesGiveSameCounts) {
  Rng rng(800);
  const CsrGraph g = generate_barabasi_albert(300, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 200;
  opt.batch_size = 200;
  opt.seed = 801;
  const UpdateStream stream = make_update_stream(g, opt);
  const QueryGraph q = make_pattern(1);

  auto run = [&](auto make_policy) {
    DynamicGraph dyn(stream.initial);
    dyn.apply_batch(stream.batches[0]);
    gpusim::SimtExecutor exec(2);
    MatchEngine engine(q, exec);
    gpusim::TrafficCounters c;
    auto policy = make_policy(dyn);
    return engine.match_batch(dyn, stream.batches[0], *policy, c)
        .signed_embeddings;
  };

  gpusim::SimParams params;
  const std::int64_t host = run([&](DynamicGraph& dyn) {
    return std::make_unique<HostPolicy>(dyn);
  });
  const std::int64_t zc = run([&](DynamicGraph& dyn) {
    return std::make_unique<ZeroCopyPolicy>(dyn, params);
  });
  const std::int64_t um = run([&](DynamicGraph& dyn) {
    return std::make_unique<UnifiedMemoryPolicy>(dyn, params);
  });
  EXPECT_EQ(host, zc);
  EXPECT_EQ(host, um);
}

TEST(Engine, CachedPolicyMatchesHostCounts) {
  Rng rng(900);
  const CsrGraph g = generate_barabasi_albert(200, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 150;
  opt.batch_size = 150;
  opt.seed = 901;
  const UpdateStream stream = make_update_stream(g, opt);
  const QueryGraph q = make_pattern(2);

  DynamicGraph dyn_a(stream.initial);
  dyn_a.apply_batch(stream.batches[0]);
  gpusim::SimtExecutor exec(2);
  MatchEngine engine(q, exec);
  gpusim::TrafficCounters c;
  HostPolicy host(dyn_a);
  const std::int64_t expect =
      engine.match_batch(dyn_a, stream.batches[0], host, c)
          .signed_embeddings;

  DynamicGraph dyn_b(stream.initial);
  dyn_b.apply_batch(stream.batches[0]);
  gpusim::Device device;
  DcsrCache cache;
  // Cache a subset only: half of the vertices, so hits AND misses occur.
  std::vector<VertexId> some;
  for (VertexId v = 0; v < dyn_b.num_vertices(); v += 2) some.push_back(v);
  cache.build(dyn_b, some, 1 << 24, device, c);
  gcsm::gpusim::SimParams params;
  CachedPolicy cached(dyn_b, cache, params);
  const MatchStats stats =
      engine.match_batch(dyn_b, stream.batches[0], cached, c);
  EXPECT_EQ(stats.signed_embeddings, expect);
  const auto t = c.snapshot();
  EXPECT_GT(t.cache_hits, 0u);
  EXPECT_GT(t.cache_misses, 0u);
}

// Golden pins of the work one batch charges under each policy family: the
// kernel's op counts are the simulated kernel, so a refactor of the match
// loop must leave them byte-identical, not only the embedding counts. Only
// zero_copy_lines is left out: it depends on where malloc put each list.
// zero_copy_bytes is view_bytes, a sum of list sizes, so it is pinned.
TEST(Engine, GoldenChargedWorkPinned) {
  Rng rng(606);
  const CsrGraph g = generate_barabasi_albert(300, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 150;
  opt.batch_size = 150;
  opt.seed = 607;
  const UpdateStream stream = make_update_stream(g, opt);
  const EdgeBatch& batch = stream.batches[0];
  DynamicGraph dyn(stream.initial);
  dyn.apply_batch(batch);
  gpusim::SimtExecutor exec(3);
  MatchEngine engine(with_round_robin_labels(make_pattern(2), 2), exec);

  gpusim::Device device;
  gpusim::TrafficCounters build_counters;
  DcsrCache cache;
  std::vector<VertexId> some;
  for (VertexId v = 0; v < dyn.num_vertices(); v += 3) some.push_back(v);
  cache.build(dyn, some, 1 << 24, device, build_counters);
  const gpusim::SimParams params;
  HostPolicy host(dyn);
  ZeroCopyPolicy zero_copy(dyn, params);
  CachedPolicy cached(dyn, cache, params);

  struct Pin {
    AccessPolicy* policy;
    std::uint64_t compute_ops;
    std::uint64_t host_ops;
    std::uint64_t cache_hits;
    std::uint64_t cache_misses;
    std::uint64_t device_bytes;
    std::uint64_t zero_copy_bytes;
    std::uint64_t host_bytes;
  };
  const Pin pins[] = {
      {&host, 0, 208266, 0, 0, 0, 0, 303592},
      {&zero_copy, 132368, 0, 0, 0, 0, 303592, 0},
      {&cached, 132368, 0, 945, 2432, 175552, 220648, 0},
  };
  for (const Pin& pin : pins) {
    gpusim::TrafficCounters c;
    const MatchStats stats = engine.match_batch(dyn, batch, *pin.policy, c);
    EXPECT_EQ(stats.signed_embeddings, 168);
    EXPECT_EQ(stats.positive, 376u);
    EXPECT_EQ(stats.seeds, 520u);
    const gpusim::Traffic t = c.snapshot();
    EXPECT_EQ(t.compute_ops, pin.compute_ops);
    EXPECT_EQ(t.host_ops, pin.host_ops);
    EXPECT_EQ(t.cache_hits, pin.cache_hits);
    EXPECT_EQ(t.cache_misses, pin.cache_misses);
    EXPECT_EQ(t.device_bytes, pin.device_bytes);
    EXPECT_EQ(t.zero_copy_bytes, pin.zero_copy_bytes);
    EXPECT_EQ(t.host_bytes, pin.host_bytes);
  }

  // The routed kernel: 4 hash shards, each reading its owned lists through
  // its own zero-copy policy, charge the same work as one device.
  shard::ShardedGraph sg(stream.initial, 4, shard::PartitionStrategy::kHash,
                         params);
  const std::vector<EdgeBatch> subs = sg.split_batch(batch);
  for (std::size_t s = 0; s < sg.num_shards(); ++s) {
    sg.graph(s).apply_batch(subs[s]);
  }
  sg.note_applied(batch);
  shard::ShardedMatcher sharded(with_round_robin_labels(make_pattern(2), 2));
  ThreadPool pool(2);
  std::vector<gpusim::Traffic> per_shard;
  const MatchStats routed = sharded.match_batch(
      EngineKind::kZeroCopy, sg, batch, pool, nullptr, params, nullptr, 25.0,
      &per_shard, nullptr);
  EXPECT_EQ(routed.signed_embeddings, 168);
  ASSERT_EQ(per_shard.size(), 4u);
  gpusim::Traffic routed_sum;
  for (const gpusim::Traffic& t : per_shard) routed_sum += t;
  EXPECT_EQ(routed_sum.compute_ops, 132368u);
  EXPECT_EQ(routed_sum.zero_copy_bytes, 303592u);

  // The static (Fig. 2a) path charges its seed scan too.
  gpusim::TrafficCounters c;
  const MatchStats full = engine.match_full(dyn, host, c);
  EXPECT_EQ(full.positive, 768u);
  EXPECT_EQ(full.seeds, 582u);
  EXPECT_EQ(c.snapshot().host_ops, 94605u);
}

// --------------------------------------------------- RapidFlow-like -------

TEST(RapidFlowLike, MatchesEngineCounts) {
  Rng rng(1000);
  const CsrGraph g = generate_barabasi_albert(150, 4, 3, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 120;
  opt.batch_size = 40;
  opt.seed = 1001;
  const UpdateStream stream = make_update_stream(g, opt);
  const QueryGraph q = make_pattern(1);

  RapidFlowLikeEngine rf(stream.initial, q);

  DynamicGraph dyn(stream.initial);
  gpusim::SimtExecutor exec(2);
  MatchEngine engine(q, exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;

  for (const EdgeBatch& batch : stream.batches) {
    const auto rf_report = rf.process_batch(batch);
    dyn.apply_batch(batch);
    const MatchStats stats = engine.match_batch(dyn, batch, policy, c);
    dyn.reorganize();
    EXPECT_EQ(rf_report.stats.signed_embeddings, stats.signed_embeddings);
  }
}

TEST(RapidFlowLike, IndexFiltersByLabelAndDegree) {
  const CsrGraph g = CsrGraph::from_edges(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}, {0, 0, 1, 1});
  DynamicGraph dyn(g);
  const QueryGraph q =
      QueryGraph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}}, {0, 0, 1});
  CandidateIndex index(q, dyn);
  // Query vertex 0: label 0, degree 2 -> data vertices 0 and 1.
  EXPECT_TRUE(index.admits(0, 0));
  EXPECT_TRUE(index.admits(0, 1));
  EXPECT_FALSE(index.admits(0, 2));  // wrong label
  // Query vertex 2: label 1, degree 2 -> vertex 2 (deg 2) not 3 (deg 1).
  EXPECT_TRUE(index.admits(2, 2));
  EXPECT_FALSE(index.admits(2, 3));
  EXPECT_EQ(index.count(0), 2u);
  EXPECT_GT(index.memory_bytes(), 0u);
}

TEST(RapidFlowLike, IndexRefreshTracksDegreeChanges) {
  const CsrGraph g =
      CsrGraph::from_edges(4, {{0, 1}, {1, 2}}, {0, 0, 0, 0});
  DynamicGraph dyn(g);
  const QueryGraph q = make_triangle();  // every vertex needs degree >= 2
  CandidateIndex index(q, dyn);
  EXPECT_FALSE(index.admits(0, 0));  // degree 1
  EXPECT_TRUE(index.admits(0, 1));   // degree 2

  EdgeBatch batch;
  batch.updates.push_back({0, 3, +1});
  dyn.apply_batch(batch);
  index.refresh(dyn, batch);
  EXPECT_TRUE(index.admits(0, 0));  // now degree 2
  dyn.reorganize();
}

}  // namespace
}  // namespace gcsm
