// Multi-device sharded matching suite (DESIGN.md, "Multi-device
// sharding").
//
// The contract under test: a ShardedMatchEngine partitioning the data graph
// across N simulated devices produces per-query and aggregate match counts
// BIT-IDENTICAL to the single-device MultiQueryEngine fed the same stream —
// for 1/2/4/8 shards, every EngineKind, range and hash partitioning, with
// and without the p=0.05 all-site fault matrix. Plus the GraphPartitioner
// unit contract (determinism, balance on skewed graphs, cut-edge
// replication consistency under insert/delete/reorg) and the branch
// decomposition used for Pregel-style stitching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/list_ref.hpp"
#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/branch_plan.hpp"
#include "query/patterns.hpp"
#include "query/plan.hpp"
#include "server/multi_query_engine.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_engine.hpp"
#include "shard/sharded_graph.hpp"
#include "util/durable_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/trace.hpp"

namespace gcsm {
namespace {

using server::MultiQueryEngine;
using server::MultiQueryOptions;
using shard::GraphPartitioner;
using shard::PartitionStrategy;
using shard::ShardedBatchReport;
using shard::ShardedEngineOptions;
using shard::ShardedGraph;
using shard::ShardedMatchEngine;

constexpr EngineKind kAllKinds[] = {
    EngineKind::kGcsm,        EngineKind::kZeroCopy,
    EngineKind::kUnifiedMemory, EngineKind::kNaiveDegree,
    EngineKind::kVsgm,        EngineKind::kCpu,
};
constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
constexpr PartitionStrategy kStrategies[] = {PartitionStrategy::kRange,
                                             PartitionStrategy::kHash};

struct StreamFixture {
  explicit StreamFixture(int seed, VertexId n = 400, std::size_t batch = 64,
                         std::size_t pool = 512) {
    Rng rng(seed);
    base = generate_barabasi_albert(n, 4, 2, rng);
    UpdateStreamOptions opt;
    opt.pool_edge_count = pool;
    opt.batch_size = batch;
    opt.seed = seed + 1;
    stream = make_update_stream(base, opt);
  }
  CsrGraph base;
  UpdateStream stream;
};

std::vector<QueryGraph> two_patterns() {
  std::vector<QueryGraph> qs;
  qs.push_back(make_triangle());
  qs.push_back(make_fig1_diamond());
  return qs;
}

MultiQueryOptions reference_options(EngineKind kind) {
  MultiQueryOptions opt;
  opt.kind = kind;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 512;
  opt.recovery.backoff_initial_ms = 0.0;
  opt.recovery.watchdog_timeout_ms = 2.0;
  opt.check_invariants = true;
  return opt;
}

ShardedEngineOptions sharded_options(EngineKind kind, std::size_t shards,
                                     PartitionStrategy strategy) {
  ShardedEngineOptions opt;
  opt.kind = kind;
  opt.num_shards = shards;
  opt.partition = strategy;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 512;
  opt.recovery.backoff_initial_ms = 0.0;
  opt.recovery.watchdog_timeout_ms = 2.0;
  opt.check_invariants = true;
  return opt;
}

// The match work one batch charges to the cost model, summed over queries
// (single device) or over shards (sharded).
struct ChargedOps {
  std::uint64_t compute_ops = 0;
  std::uint64_t host_ops = 0;

  void add(const gpusim::Traffic& t) {
    compute_ops += t.compute_ops;
    host_ops += t.host_ops;
  }
};

// Per-batch, per-query reference counts from the single-device engine, and
// (when `ops` is set) the per-batch charged ops summed over queries.
std::vector<std::vector<MatchStats>> reference_counts(
    EngineKind kind, const StreamFixture& f, std::size_t num_batches,
    std::vector<ChargedOps>* ops = nullptr) {
  MultiQueryEngine engine(f.stream.initial, reference_options(kind));
  for (const QueryGraph& q : two_patterns()) {
    engine.register_query(q);
  }
  std::vector<std::vector<MatchStats>> out;
  for (std::size_t k = 0; k < num_batches; ++k) {
    const server::ServerBatchReport r =
        engine.process_batch(f.stream.batches[k]);
    std::vector<MatchStats> per_query;
    ChargedOps charged;
    for (const auto& qr : r.queries) {
      per_query.push_back(qr.report.stats);
      charged.add(qr.report.traffic);
    }
    out.push_back(per_query);
    if (ops != nullptr) ops->push_back(charged);
  }
  return out;
}

// With `want_ops` set, also asserts that the shards together charge exactly
// the single-device ops per batch: the routed kernel does the same work,
// only on other devices.
void expect_sharded_matches_reference(
    EngineKind kind, std::size_t shards, PartitionStrategy strategy,
    const StreamFixture& f, const std::vector<std::vector<MatchStats>>& want,
    FaultInjector* faults, const std::vector<ChargedOps>* want_ops = nullptr) {
  ShardedEngineOptions opt = sharded_options(kind, shards, strategy);
  opt.fault_injector = faults;
  ShardedMatchEngine engine(f.stream.initial, opt);
  for (const QueryGraph& q : two_patterns()) {
    engine.register_query(q);
  }
  for (std::size_t k = 0; k < want.size(); ++k) {
    const ShardedBatchReport got = engine.process_batch(f.stream.batches[k]);
    ASSERT_EQ(got.queries.size(), want[k].size());
    std::int64_t sum_signed = 0;
    for (std::size_t i = 0; i < want[k].size(); ++i) {
      EXPECT_EQ(got.queries[i].stats.signed_embeddings,
                want[k][i].signed_embeddings)
          << engine_kind_name(kind) << " shards=" << shards << " "
          << partition_strategy_name(strategy) << " query " << i << " batch "
          << k;
      EXPECT_EQ(got.queries[i].stats.positive, want[k][i].positive)
          << engine_kind_name(kind) << " shards=" << shards << " query " << i
          << " batch " << k;
      EXPECT_EQ(got.queries[i].stats.negative, want[k][i].negative)
          << engine_kind_name(kind) << " shards=" << shards << " query " << i
          << " batch " << k;
      sum_signed += got.queries[i].stats.signed_embeddings;
    }
    EXPECT_EQ(got.shared.stats.signed_embeddings, sum_signed)
        << "aggregate != sum of per-query counts at batch " << k;
    if (want_ops == nullptr) continue;
    ChargedOps charged;
    for (const BatchReport& sr : got.shards) charged.add(sr.traffic);
    EXPECT_EQ(charged.compute_ops, (*want_ops)[k].compute_ops)
        << engine_kind_name(kind) << " shards=" << shards << " "
        << partition_strategy_name(strategy) << " batch " << k;
    EXPECT_EQ(charged.host_ops, (*want_ops)[k].host_ops)
        << engine_kind_name(kind) << " shards=" << shards << " "
        << partition_strategy_name(strategy) << " batch " << k;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity vs the single-device engine: clean runs.

TEST(Shard, BitIdenticalToSingleDeviceAllKindsCounts) {
  const StreamFixture f(23);
  const std::size_t batches = 2;
  for (const EngineKind kind : kAllKinds) {
    std::vector<ChargedOps> want_ops;
    const std::vector<std::vector<MatchStats>> want =
        reference_counts(kind, f, batches, &want_ops);
    for (const std::size_t shards : kShardCounts) {
      for (const PartitionStrategy strategy : kStrategies) {
        expect_sharded_matches_reference(kind, shards, strategy, f, want,
                                         nullptr, &want_ops);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-identity under the p=0.05 all-site fault matrix (faulty sharded engine
// vs CLEAN single-device reference — recovery must preserve counts).

TEST(Shard, FaultMatrixPreservesCountsAllKinds) {
  const StreamFixture f(29);
  const std::size_t batches = 2;
  std::uint64_t fault_seed = 900;
  for (const EngineKind kind : kAllKinds) {
    const std::vector<std::vector<MatchStats>> want =
        reference_counts(kind, f, batches);
    for (const std::size_t shards : kShardCounts) {
      for (const PartitionStrategy strategy : kStrategies) {
        FaultInjector inj(++fault_seed);
        inj.arm_all(0.05);
        if (kind == EngineKind::kVsgm) {
          // VSGM treats device OOM as semantic — the ladder rethrows it by
          // contract (matching Pipeline and MultiQueryEngine), so the alloc
          // site is excluded for this kind only. An explicit zero-probability
          // spec overrides the arm_all default.
          inj.arm(fault_site::kDeviceAlloc, FaultSpec{});
        }
        expect_sharded_matches_reference(kind, shards, strategy, f, want,
                                         &inj);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Durable commit markers aggregate the per-shard counters.

TEST(Shard, CommitMarkersAggregatePerShardCounters) {
  const StreamFixture f(31);
  static int dir_counter = 0;
  const std::string dir = std::string(::testing::TempDir()) +
                          "gcsm_shard_wal_" + std::to_string(dir_counter++);
  std::filesystem::remove_all(dir);
  io::ensure_dir(dir);

  ShardedEngineOptions opt =
      sharded_options(EngineKind::kGcsm, 4, PartitionStrategy::kHash);
  opt.durability.wal_dir = dir;
  ShardedMatchEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());

  std::int64_t cum_signed = 0;
  std::uint64_t cum_positive = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const ShardedBatchReport r = engine.process_batch(f.stream.batches[k]);
    EXPECT_NE(r.shared.wal_seq, 0u);
    cum_signed += r.shared.stats.signed_embeddings;
    cum_positive += r.shared.stats.positive;
  }
  EXPECT_EQ(engine.cumulative().batches_committed, 3u);
  EXPECT_EQ(engine.cumulative().cum_signed, cum_signed);
  EXPECT_EQ(engine.cumulative().cum_positive, cum_positive);
  std::filesystem::remove_all(dir);
}

// The sharded engine cannot replay a WAL, so a restart on committed history
// fails closed instead of starting from the initial graph and appending
// markers whose counters no longer add up. The WAL stays recoverable
// through a single-device engine, and a fresh start scrubs it.
TEST(Shard, RestartOnCommittedWalFailsClosed) {
  const StreamFixture f(31);
  const std::string dir =
      std::string(::testing::TempDir()) + "gcsm_shard_restart";
  std::filesystem::remove_all(dir);
  io::ensure_dir(dir);

  ShardedEngineOptions opt =
      sharded_options(EngineKind::kGcsm, 4, PartitionStrategy::kHash);
  opt.durability.wal_dir = dir;
  durable::DurableCounters committed;
  {
    ShardedMatchEngine first(f.stream.initial, opt);
    first.register_query(make_triangle());
    for (std::size_t k = 0; k < 3; ++k) {
      first.process_batch(f.stream.batches[k]);
    }
    committed = first.cumulative();
  }

  try {
    ShardedMatchEngine restarted(f.stream.initial, opt);
    FAIL() << "restart on a committed WAL did not fail closed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRecovery);
  }

  PipelineOptions popt;
  popt.kind = EngineKind::kCpu;
  popt.durability.wal_dir = dir;
  {
    const Pipeline replayed(f.stream.initial, make_triangle(), popt);
    EXPECT_EQ(replayed.cumulative(), committed);
  }

  opt.durability.recover_on_start = false;
  ShardedMatchEngine fresh(f.stream.initial, opt);
  fresh.register_query(make_triangle());
  EXPECT_EQ(fresh.process_batch(f.stream.batches[0]).shared.wal_seq, 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Routed stitch accounting and the full static recount.

TEST(Shard, StitchAccountingAndStaticRecount) {
  const StreamFixture f(37);
  ShardedEngineOptions opt =
      sharded_options(EngineKind::kCpu, 4, PartitionStrategy::kHash);
  ShardedMatchEngine engine(f.stream.initial, opt);
  const auto id = engine.register_query(make_fig1_diamond());

  MultiQueryEngine ref(f.stream.initial,
                       reference_options(EngineKind::kCpu));
  const auto ref_id = ref.register_query(make_fig1_diamond());

  for (std::size_t k = 0; k < 2; ++k) {
    const ShardedBatchReport r = engine.process_batch(f.stream.batches[k]);
    // Every (plan, record, orientation) item lands on exactly one shard.
    const std::size_t plans =
        make_delta_plans(make_fig1_diamond()).size();
    EXPECT_EQ(r.stitch.routed_items,
              plans * f.stream.batches[k].updates.size() * 2);
    EXPECT_GE(r.stitch.supersteps, 1u);
    ref.process_batch(f.stream.batches[k]);
  }
  EXPECT_EQ(engine.count_current_embeddings(id),
            ref.count_current_embeddings(ref_id));
}

// ---------------------------------------------------------------------------
// The per-shard cache step.

// VSGM never misses on a single device, and must not on any shard count:
// each shard caches its owned part of the k-hop set one device would cache.
// Searching on a shard's own graph from its own sub-batch is not enough. A
// vertex owned by another shard holds only its cut edges there, so a vertex
// near an update only through other shards' vertices is never reached.
TEST(Shard, VsgmNeverMissesOnAnyShardCount) {
  Rng rng(61);
  const CsrGraph base = generate_barabasi_albert(20000, 2, 2, rng);
  UpdateStreamOptions sopt;
  sopt.pool_edge_count = 128;
  sopt.batch_size = 8;
  sopt.seed = 62;
  const UpdateStream stream = make_update_stream(base, sopt);
  for (const std::size_t shards : kShardCounts) {
    for (const PartitionStrategy strategy : kStrategies) {
      ShardedMatchEngine engine(
          stream.initial,
          sharded_options(EngineKind::kVsgm, shards, strategy));
      engine.register_query(make_path(4));
      engine.register_query(make_cycle(5));
      engine.register_query(make_fig1_diamond());
      for (std::size_t k = 0; k < stream.num_batches(); ++k) {
        const ShardedBatchReport r = engine.process_batch(stream.batches[k]);
        EXPECT_GT(r.shared.traffic.cache_hits, 0u);
        EXPECT_EQ(r.shared.traffic.cache_misses, 0u)
            << "shards=" << shards << " "
            << partition_strategy_name(strategy) << " batch " << k;
      }
    }
  }
}

// The trace attributes a sharded batch like a single-device one: a batch
// and a match span in the engine's scope, and each shard's estimate under
// its own scope.
TEST(Shard, TraceHasBatchMatchAndPerShardEstimateSpans) {
  const StreamFixture f(38);
  ShardedMatchEngine engine(
      f.stream.initial,
      sharded_options(EngineKind::kGcsm, 4, PartitionStrategy::kHash));
  for (const QueryGraph& q : two_patterns()) engine.register_query(q);

  trace::TraceCollector collector;
  trace::set_collector(&collector);
  engine.process_batch(f.stream.batches[0]);
  trace::set_collector(nullptr);

  std::map<std::string, int> spans;
  for (const trace::TraceEvent& e : collector.events()) ++spans[e.name];
  EXPECT_EQ(spans["pipeline.batch"], 1);
  EXPECT_EQ(spans["pipeline.match"], 1);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(spans["shard" + std::to_string(s) + ".pipeline.estimate"], 1)
        << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// GraphPartitioner: determinism, balance, validation.

TEST(Shard, PartitionerIsDeterministicAcrossRuns) {
  for (const PartitionStrategy strategy : kStrategies) {
    const GraphPartitioner a(4, strategy, 1000);
    const GraphPartitioner b(4, strategy, 1000);
    for (VertexId v = 0; v < 1000; ++v) {
      EXPECT_EQ(a.owner(v), b.owner(v))
          << partition_strategy_name(strategy) << " vertex " << v;
      EXPECT_LT(a.owner(v), 4u);
    }
  }
}

TEST(Shard, RangePartitionOwnsContiguousBlocks) {
  const GraphPartitioner p(4, PartitionStrategy::kRange, 100);
  EXPECT_EQ(p.owner(0), 0u);
  EXPECT_EQ(p.owner(24), 0u);
  EXPECT_EQ(p.owner(25), 1u);
  EXPECT_EQ(p.owner(99), 3u);
  // Vertices past the initial range clamp to the last shard.
  EXPECT_EQ(p.owner(500), 3u);
  for (VertexId v = 1; v < 100; ++v) {
    EXPECT_GE(p.owner(v), p.owner(v - 1)) << "range owners must be monotone";
  }
}

TEST(Shard, HashPartitionBalancesSkewedPowerLawGraph) {
  Rng rng(7);
  const CsrGraph g = generate_barabasi_albert(2000, 8, 2, rng);
  DynamicGraph dyn(g);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const GraphPartitioner p(shards, PartitionStrategy::kHash,
                             g.num_vertices());
    const shard::PartitionStats st = p.stats(dyn);
    std::uint64_t total_vertices = 0;
    for (const std::uint64_t x : st.owned_vertices) total_vertices += x;
    EXPECT_EQ(total_vertices, static_cast<std::uint64_t>(g.num_vertices()));
    // Edge load of the hottest shard stays within 2x the balanced share
    // even though BA degree is heavily skewed.
    EXPECT_LT(st.imbalance, 2.0) << shards << " shards";
    EXPECT_GE(st.imbalance, 1.0);
    EXPECT_GT(st.cut_edges, 0u);
  }
}

TEST(Shard, PartitionerRejectsZeroShards) {
  EXPECT_THROW(GraphPartitioner(0, PartitionStrategy::kRange, 10), Error);
  try {
    const GraphPartitioner p(0, PartitionStrategy::kHash, 10);
    FAIL() << "expected kConfig";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

TEST(Shard, ParsePartitionStrategyRejectsUnknown) {
  EXPECT_EQ(shard::parse_partition_strategy("range"),
            PartitionStrategy::kRange);
  EXPECT_EQ(shard::parse_partition_strategy("hash"), PartitionStrategy::kHash);
  try {
    shard::parse_partition_strategy("metis");
    FAIL() << "expected kConfig";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

// ---------------------------------------------------------------------------
// Cut-edge replication stays consistent under insert/delete/reorg batches.

TEST(Shard, ReplicatedViewsMatchSingleDeviceAfterStream) {
  const StreamFixture f(41, 300, 48, 384);
  const gpusim::SimParams sim;
  ShardedGraph sg(f.stream.initial, 4, PartitionStrategy::kHash, sim);
  DynamicGraph single(f.stream.initial);

  std::vector<VertexId> got;
  std::vector<VertexId> want;
  for (std::size_t k = 0; k < 4; ++k) {
    const EdgeBatch& batch = f.stream.batches[k];
    const std::vector<EdgeBatch> subs = sg.split_batch(batch);
    for (std::size_t s = 0; s < sg.num_shards(); ++s) {
      sg.graph(s).apply_batch(subs[s]);
    }
    single.apply_batch(batch);
    sg.note_applied(batch);
    // Reorganize after every apply, as phase_reorg does in the engines:
    // DynamicGraph forbids a second apply_batch while one is pending.
    for (std::size_t s = 0; s < sg.num_shards(); ++s) {
      sg.graph(s).reorganize();
    }
    single.reorganize();
    sg.validate();

    ASSERT_EQ(sg.num_vertices(), single.num_vertices());
    for (VertexId v = 0; v < single.num_vertices(); ++v) {
      const std::size_t owner = sg.owner(v);
      EXPECT_EQ(sg.graph(owner).live_degree(v), single.live_degree(v))
          << "vertex " << v << " batch " << k;
      got.clear();
      want.clear();
      materialize_view(sg.graph(owner).view(v, ViewMode::kNew), got);
      materialize_view(single.view(v, ViewMode::kNew), want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "owner view of vertex " << v
                           << " diverged at batch " << k;
    }
    // The incremental cut-edge count agrees with a full recount.
    const shard::PartitionStats recount = sg.partitioner().stats(single);
    EXPECT_EQ(sg.cut_edges(), recount.cut_edges) << "batch " << k;
  }
}

// ---------------------------------------------------------------------------
// Branch decomposition (query/branch_plan.hpp).

TEST(Shard, BranchDecompositionPicksHighDegreeRootDeterministically) {
  const QueryGraph diamond = make_fig1_diamond();
  const BranchDecomposition a = make_branch_decomposition(diamond);
  const BranchDecomposition b = make_branch_decomposition(diamond);
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.num_branches, b.num_branches);
  for (std::uint32_t v = 0; v < diamond.num_vertices(); ++v) {
    EXPECT_EQ(a.parent[v], b.parent[v]);
    EXPECT_EQ(a.branch_number[v], b.branch_number[v]);
  }
  // Root maximizes degree (ties to the smaller id).
  for (std::uint32_t v = 0; v < diamond.num_vertices(); ++v) {
    EXPECT_LE(diamond.degree(v), diamond.degree(a.root));
  }
  EXPECT_EQ(a.parent[a.root], a.root);
  // Every non-root parent is a query neighbor (spanning tree).
  for (std::uint32_t v = 0; v < diamond.num_vertices(); ++v) {
    if (v == a.root) continue;
    EXPECT_TRUE(diamond.adjacent(v, a.parent[v]))
        << "parent of " << v << " is not adjacent";
  }
}

TEST(Shard, BranchDecompositionSegmentsAndStitchLevels) {
  const QueryGraph tri = make_triangle();
  const BranchDecomposition d = make_branch_decomposition(tri);
  EXPECT_GE(d.num_branches, 1u);
  for (const QueryGraph& q : two_patterns()) {
    const BranchDecomposition dec = make_branch_decomposition(q);
    for (const MatchPlan& plan : make_delta_plans(q)) {
      const std::vector<std::uint8_t> levels = stitch_levels(dec, plan);
      ASSERT_EQ(levels.size(), plan.num_levels());
      for (std::uint32_t l = 0; l < plan.num_levels(); ++l) {
        const bool expect =
            dec.is_branch[plan.levels[l].query_vertex] != 0;
        EXPECT_EQ(levels[l] != 0, expect);
      }
    }
  }
}

}  // namespace
}  // namespace gcsm
