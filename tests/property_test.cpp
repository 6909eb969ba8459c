// Randomized property tests over many seeds: the heavy-duty invariants that
// pin down the system end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/dcsr_cache.hpp"
#include "core/list_ref.hpp"
#include "core/pipeline.hpp"
#include "core/reference_matcher.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/automorphism.hpp"
#include "query/motifs.hpp"
#include "query/patterns.hpp"

namespace gcsm {
namespace {

// ---------------------------------------------------------------------
// Property: incremental signed counts telescope to the full-match delta
// across an entire stream, for random graphs, batch sizes and patterns.
// ---------------------------------------------------------------------

struct IncrementalCase {
  int seed;
  int pattern;       // 0 = triangle, 1..6 = Q1..Q6
  VertexId vertices;
  EdgeCount edges;
  std::size_t batch_size;
};

class IncrementalProperty
    : public ::testing::TestWithParam<IncrementalCase> {};

QueryGraph pattern_for(int id) {
  return id == 0 ? make_triangle() : make_pattern(id);
}

// gtest would print a case as its raw bytes, padding included, and ctest
// names each case by that print, so every build got its own names.
void PrintTo(const IncrementalCase& c, std::ostream* os) {
  *os << '{' << c.seed << ',' << c.pattern << ',' << c.vertices << ','
      << c.edges << ',' << c.batch_size << '}';
}

TEST_P(IncrementalProperty, TelescopesAcrossStream) {
  const IncrementalCase c = GetParam();
  Rng rng(c.seed);
  const CsrGraph base =
      generate_erdos_renyi(c.vertices, c.edges, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = c.batch_size * 3;
  opt.batch_size = c.batch_size;
  opt.seed = c.seed * 31 + 1;
  const UpdateStream stream = make_update_stream(base, opt);
  const QueryGraph q = pattern_for(c.pattern);

  DynamicGraph dyn(stream.initial);
  gpusim::SimtExecutor exec(2);
  MatchEngine engine(q, exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters ctr;

  std::int64_t running = static_cast<std::int64_t>(
      reference_count_embeddings(stream.initial, q));
  for (const EdgeBatch& batch : stream.batches) {
    dyn.apply_batch(batch);
    running += engine.match_batch(dyn, batch, policy, ctr).signed_embeddings;
    dyn.reorganize();
  }
  EXPECT_EQ(running, static_cast<std::int64_t>(
                         reference_count_embeddings(dyn.to_csr(), q)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalProperty,
    ::testing::Values(IncrementalCase{1, 0, 40, 150, 16},
                      IncrementalCase{2, 0, 60, 300, 32},
                      IncrementalCase{3, 1, 40, 140, 12},
                      IncrementalCase{4, 2, 35, 120, 10},
                      IncrementalCase{5, 3, 40, 130, 16},
                      IncrementalCase{6, 4, 40, 130, 16},
                      IncrementalCase{7, 5, 35, 110, 8},
                      IncrementalCase{8, 6, 35, 110, 8},
                      IncrementalCase{9, 0, 25, 120, 1},   // single-edge CSM
                      IncrementalCase{10, 1, 30, 100, 1},
                      IncrementalCase{11, 0, 50, 350, 64},
                      IncrementalCase{12, 3, 45, 160, 24}),
    [](const ::testing::TestParamInfo<IncrementalCase>& info) {
      const IncrementalCase& c = info.param;
      return "seed" + std::to_string(c.seed) + "_" +
             (c.pattern == 0 ? std::string("triangle")
                             : "Q" + std::to_string(c.pattern));
    });

// ---------------------------------------------------------------------
// Property: embeddings / |Aut| is integral — every subgraph is found once
// per automorphism.
// ---------------------------------------------------------------------

TEST(EmbeddingProperty, AutomorphismDividesEmbeddingCount) {
  Rng rng(77);
  const CsrGraph g = generate_erdos_renyi(50, 250, 1, rng);
  for (std::uint32_t size = 3; size <= 4; ++size) {
    for (const QueryGraph& motif : all_motifs(size)) {
      const std::uint64_t embeddings = reference_count_embeddings(g, motif);
      const std::uint64_t aut = count_automorphisms(motif);
      EXPECT_EQ(embeddings % aut, 0u) << motif.name();
    }
  }
}

TEST(EmbeddingProperty, EngineMatchesReferenceOnAllSize4Motifs) {
  Rng rng(88);
  const CsrGraph g = generate_barabasi_albert(70, 3, 1, rng);
  DynamicGraph dyn(g);
  gpusim::SimtExecutor exec(2);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;
  for (const QueryGraph& motif : all_motifs(4)) {
    MatchEngine engine(motif, exec);
    EXPECT_EQ(engine.match_full(dyn, policy, c).positive,
              reference_count_embeddings(g, motif))
        << motif.name();
  }
}

// ---------------------------------------------------------------------
// Property: the set of embeddings (not just the count) produced
// incrementally equals the symmetric difference of full enumerations.
// ---------------------------------------------------------------------

using Embedding = std::vector<VertexId>;  // indexed by query vertex id

std::multiset<Embedding> full_embedding_set(const CsrGraph& g,
                                            const QueryGraph& q) {
  std::multiset<Embedding> out;
  for (const auto& arr : reference_list_embeddings(g, q)) {
    out.insert(Embedding(arr.begin(), arr.begin() + q.num_vertices()));
  }
  return out;
}

TEST(EmbeddingProperty, IncrementalSetEqualsSymmetricDifference) {
  Rng rng(99);
  const CsrGraph base = generate_erdos_renyi(30, 120, 1, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 30;
  opt.batch_size = 30;
  opt.seed = 100;
  const UpdateStream stream = make_update_stream(base, opt);
  const QueryGraph q = make_triangle();

  DynamicGraph dyn(stream.initial);
  dyn.apply_batch(stream.batches[0]);

  std::multiset<Embedding> added, removed;
  MatchSink sink = [&](const MatchPlan& plan, std::span<const VertexId> b,
                       int sign) {
    // Reorder the binding from plan order to query-vertex order.
    Embedding e(q.num_vertices());
    for (std::size_t pos = 0; pos < b.size(); ++pos) {
      e[plan.vertex_order[pos]] = b[pos];
    }
    if (sign > 0) {
      added.insert(e);
    } else {
      removed.insert(e);
    }
  };

  gpusim::SimtExecutor exec(1);
  MatchEngine engine(q, exec);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;
  engine.match_batch(dyn, stream.batches[0], policy, c, &sink);
  dyn.reorganize();

  const auto before = full_embedding_set(stream.initial, q);
  const auto after = full_embedding_set(dyn.to_csr(), q);

  // after = before + added - removed as *signed* multisets. Canceling
  // +1/-1 pairs for embeddings in neither snapshot are legitimate: an
  // embedding combining one inserted and one deleted edge is emitted once
  // with each sign by different delta joins and nets to zero.
  std::map<Embedding, std::int64_t> counts;
  for (const auto& e : before) ++counts[e];
  for (const auto& e : added) ++counts[e];
  for (const auto& e : removed) --counts[e];
  std::multiset<Embedding> reconstructed;
  for (const auto& [e, c] : counts) {
    ASSERT_GE(c, 0) << "net-negative embedding count";
    ASSERT_LE(c, 1) << "embedding counted twice";
    if (c == 1) reconstructed.insert(e);
  }
  EXPECT_EQ(reconstructed, after);
}

// ---------------------------------------------------------------------
// Property: DCSR caching is transparent — cached and uncached runs produce
// identical results for random subsets of cached vertices.
// ---------------------------------------------------------------------

TEST(CacheProperty, RandomCacheSubsetsAreTransparent) {
  Rng rng(123);
  const CsrGraph base = generate_barabasi_albert(120, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 80;
  opt.batch_size = 80;
  opt.seed = 124;
  const UpdateStream stream = make_update_stream(base, opt);
  const QueryGraph q = make_pattern(1);

  // Expected result once, via host policy.
  DynamicGraph dyn(stream.initial);
  dyn.apply_batch(stream.batches[0]);
  gpusim::SimtExecutor exec(2);
  MatchEngine engine(q, exec);
  gpusim::TrafficCounters c;
  HostPolicy host(dyn);
  const std::int64_t expected =
      engine.match_batch(dyn, stream.batches[0], host, c).signed_embeddings;

  gpusim::SimParams params;
  for (int trial = 0; trial < 8; ++trial) {
    Rng trng(200 + trial);
    std::vector<VertexId> subset;
    for (VertexId v = 0; v < dyn.num_vertices(); ++v) {
      if (trng.bernoulli(0.3)) subset.push_back(v);
    }
    gpusim::Device device;
    DcsrCache cache;
    cache.build(dyn, subset, 1 << 24, device, c);
    CachedPolicy policy(dyn, cache, params);
    EXPECT_EQ(
        engine.match_batch(dyn, stream.batches[0], policy, c)
            .signed_embeddings,
        expected)
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------
// Property: reorganize preserves exactly the live edge multiset.
// ---------------------------------------------------------------------

TEST(ReorganizeProperty, PreservesLiveEdgesAcrossRandomStreams) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(400 + seed);
    const CsrGraph base = generate_erdos_renyi(80, 400, 2, rng);
    UpdateStreamOptions opt;
    opt.pool_edge_fraction = 0.3;
    opt.batch_size = 40;
    opt.seed = 500 + seed;
    const UpdateStream stream = make_update_stream(base, opt);
    DynamicGraph dyn(stream.initial);
    for (const EdgeBatch& batch : stream.batches) {
      dyn.apply_batch(batch);
      const CsrGraph before = dyn.to_csr();  // NEW view pre-reorg
      dyn.reorganize();
      const CsrGraph after = dyn.to_csr();
      ASSERT_EQ(before.num_edges(), after.num_edges());
      ASSERT_EQ(dyn.num_live_edges(), after.num_edges());
      const auto ea = before.edge_list();
      const auto eb = after.edge_list();
      ASSERT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()));
    }
  }
}

// ---------------------------------------------------------------------
// Property: work-stealing and static schedules agree.
// ---------------------------------------------------------------------

TEST(ScheduleProperty, WorkStealingAndStaticAgree) {
  Rng rng(600);
  const CsrGraph base = generate_barabasi_albert(200, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 100;
  opt.batch_size = 100;
  opt.seed = 601;
  const UpdateStream stream = make_update_stream(base, opt);
  const QueryGraph q = make_pattern(2);

  auto run = [&](gpusim::Schedule sched) {
    DynamicGraph dyn(stream.initial);
    dyn.apply_batch(stream.batches[0]);
    gpusim::SimtExecutor exec(3, sched);
    MatchEngine engine(q, exec);
    HostPolicy policy(dyn);
    gpusim::TrafficCounters c;
    return engine.match_batch(dyn, stream.batches[0], policy, c)
        .signed_embeddings;
  };
  EXPECT_EQ(run(gpusim::Schedule::kWorkStealing),
            run(gpusim::Schedule::kStatic));
}

// ---------------------------------------------------------------------
// Property: traffic conservation — zero-copy useful bytes never exceed
// line bytes; cache hits + misses equal total fetches.
// ---------------------------------------------------------------------

TEST(TrafficProperty, LineBytesDominateUsefulBytes) {
  Rng rng(700);
  const CsrGraph base = generate_barabasi_albert(300, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 128;
  opt.batch_size = 128;
  opt.seed = 701;
  const UpdateStream stream = make_update_stream(base, opt);

  PipelineOptions popt;
  popt.kind = EngineKind::kZeroCopy;
  popt.workers = 2;
  Pipeline pipe(stream.initial, make_pattern(1), popt);
  const BatchReport r = pipe.process_batch(stream.batches[0]);
  EXPECT_LE(r.traffic.zero_copy_bytes,
            r.traffic.zero_copy_lines * popt.sim.zero_copy_line_bytes);
}

}  // namespace
}  // namespace gcsm
