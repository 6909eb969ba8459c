// Fault-injection matrix for the recovery ladder (docs/ROBUSTNESS.md).
//
// The contract under test: with any fault site armed, the pipeline either
// completes the batch with results BIT-IDENTICAL to a fault-free run, or (when
// recovery is exhausted or disabled) rethrows with the graph rolled back to
// its pre-batch state and every invariant intact. Faults may cost retries,
// cache-budget degradation, or a CPU re-run — never correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dcsr_cache.hpp"
#include "core/gpu_engine.hpp"
#include "core/pipeline.hpp"
#include "core/reference_matcher.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simt_executor.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace gcsm {
namespace {

struct StreamFixture {
  explicit StreamFixture(int seed, VertexId n = 400, std::size_t batch = 64,
                         std::size_t pool = 256) {
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

PipelineOptions fault_options(EngineKind kind) {
  PipelineOptions opt;
  opt.kind = kind;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 2048;
  opt.sim.device_memory_bytes = 64ull << 20;
  opt.recovery.backoff_initial_ms = 0.0;  // no sleeping in tests
  opt.recovery.watchdog_timeout_ms = 2.0;
  return opt;
}

std::int64_t count_in(const DynamicGraph& graph, const QueryGraph& query) {
  return static_cast<std::int64_t>(
      reference_count_embeddings(graph.to_csr(), query));
}

// The sharded engine under the same knobs as fault_options: `shards` hash
// shards sharing the cache budget.
shard::ShardedEngineOptions sharded_fault_options(std::size_t shards) {
  const PipelineOptions base = fault_options(EngineKind::kGcsm);
  shard::ShardedEngineOptions opt;
  opt.num_shards = shards;
  opt.partition = shard::PartitionStrategy::kHash;
  opt.kind = base.kind;
  opt.sim = base.sim;
  opt.cache_budget_bytes = base.cache_budget_bytes;
  opt.estimator = base.estimator;
  opt.recovery = base.recovery;
  return opt;
}

// The golden file `name` under tests/golden/.
std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(GCSM_TEST_GOLDEN_DIR) + "/" + name);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// One line of a ladder trace: the recovery decisions batch `k` reported.
std::string ladder_line(std::size_t k, const BatchReport& r) {
  std::ostringstream os;
  os << k << " retries=" << r.retries << " level=" << r.degradation_level
     << " budget=" << r.effective_cache_budget << " cpu=" << r.cpu_fallback
     << " faults=" << r.faults_observed;
  return os.str();
}

// The acceptance matrix's stream: 200 batches of 8 updates.
UpdateStream matrix_stream() {
  Rng rng(2026);
  const CsrGraph base = generate_barabasi_albert(600, 4, 3, rng);
  UpdateStreamOptions sopt;
  sopt.pool_edge_count = 1600;
  sopt.batch_size = 8;
  sopt.seed = 5;
  return make_update_stream(base, sopt);
}

// The acceptance matrix's injector and ladder knobs.
constexpr std::uint64_t kMatrixFaultSeed = 0xFA01;
void set_matrix_recovery(RecoveryOptions& rec) {
  rec.max_attempts = 2;
  rec.heal_after_clean_batches = 4;
}

// ---------------------------------------------------------------------------
// FaultInjector semantics.

TEST(FaultInjector, DeterministicInSeedAndCallSequence) {
  FaultInjector a(99);
  FaultInjector b(99);
  a.arm_all(0.3);
  b.arm_all(0.3);
  std::vector<bool> fa;
  std::vector<bool> fb;
  for (int i = 0; i < 200; ++i) {
    fa.push_back(a.fires(fault_site::kDeviceDma));
    fb.push_back(b.fires(fault_site::kDeviceDma));
  }
  EXPECT_EQ(fa, fb);
  EXPECT_GT(a.fired_count(), 0u);   // p=0.3 over 200 hits fires sometimes
  EXPECT_LT(a.fired_count(), 200u);  // ... but not always
  EXPECT_EQ(a.hits(fault_site::kDeviceDma), 200u);
}

TEST(FaultInjector, NthHitFiresExactlyOnThatHit) {
  FaultInjector inj(1);
  inj.arm(fault_site::kKernelLaunch, {0.0, 3});
  std::vector<std::uint64_t> fired_at;
  for (std::uint64_t hit = 1; hit <= 10; ++hit) {
    if (inj.fires(fault_site::kKernelLaunch)) fired_at.push_back(hit);
  }
  EXPECT_EQ(fired_at, std::vector<std::uint64_t>{3});
  ASSERT_EQ(inj.observations().size(), 1u);
  EXPECT_EQ(inj.observations()[0].site, fault_site::kKernelLaunch);
  EXPECT_EQ(inj.observations()[0].hit, 3u);
}

TEST(FaultInjector, SuspendGuardSilencesAndRestores) {
  FaultInjector inj(2);
  inj.arm(fault_site::kDeviceAlloc, {1.0, 0});
  {
    FaultSuspendGuard guard(&inj);
    EXPECT_FALSE(inj.fires(fault_site::kDeviceAlloc));
    EXPECT_FALSE(inj.enabled());
  }
  EXPECT_TRUE(inj.enabled());
  EXPECT_TRUE(inj.fires(fault_site::kDeviceAlloc));
  FaultSuspendGuard null_guard(nullptr);  // must tolerate a disarmed stack
}

// ---------------------------------------------------------------------------
// Transactional snapshot / restore.

TEST(Snapshot, RestoreRoundTripsEvenAfterReorganize) {
  StreamFixture f(41);
  DynamicGraph g(f.stream.initial);
  const std::vector<Edge> before = g.to_csr().edge_list();

  const EdgeBatch& batch = f.stream.batches[0];
  const DynamicGraph::Snapshot snap = g.snapshot_for(batch);
  g.apply_batch(batch);
  g.reorganize();
  g.validate();
  EXPECT_NE(g.to_csr().edge_list(), before);

  g.restore(snap);
  g.validate();
  EXPECT_EQ(g.to_csr().edge_list(), before);
  EXPECT_FALSE(g.has_pending_batch());
}

TEST(Snapshot, RestoreRecoversFromHalfAppliedBatch) {
  StreamFixture f(42);
  DynamicGraph g(f.stream.initial);
  const std::vector<Edge> before = g.to_csr().edge_list();

  FaultInjector inj(5);
  inj.arm(fault_site::kGraphApply, {1.0, 0});
  g.set_fault_injector(&inj);

  const EdgeBatch& batch = f.stream.batches[0];
  const DynamicGraph::Snapshot snap = g.snapshot_for(batch);
  try {
    g.apply_batch(batch);
    FAIL() << "armed graph.apply site did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kGraphApply);
    EXPECT_TRUE(e.transient());
  }

  // The batch stopped between the two directed appends of one edge; only
  // restore() can bring the store back to a validating state.
  g.restore(snap);
  g.validate();
  EXPECT_EQ(g.to_csr().edge_list(), before);

  inj.set_enabled(false);
  g.apply_batch(batch);
  g.reorganize();
  g.validate();
}

// ---------------------------------------------------------------------------
// Batch sanitization.

TEST(Sanitize, QuarantinesEveryMalformationKind) {
  const CsrGraph base = CsrGraph::from_edges(4, {{0, 1}, {1, 2}},
                                             std::vector<Label>(4, 0));
  DynamicGraph g(base);

  EdgeBatch bad;
  bad.updates = {
      {0, 2, +1},   // valid insert
      {9, 1, +1},   // out of range
      {-2, 1, +1},  // out of range (negative)
      {1, 1, +1},   // self loop
      {0, 1, +1},   // insert of a live edge
      {2, 3, -1},   // delete of an absent edge
      {2, 0, -1},   // duplicate of the first undirected edge
      {0, 3, +1},   // valid insert
  };
  QuarantineReport report;
  const EdgeBatch clean = sanitize_batch(g, bad, report);

  EXPECT_EQ(clean.updates.size(), 2u);
  EXPECT_EQ(clean.updates[0], (EdgeUpdate{0, 2, +1}));
  EXPECT_EQ(clean.updates[1], (EdgeUpdate{0, 3, +1}));
  EXPECT_EQ(report.out_of_range, 2u);
  EXPECT_EQ(report.self_loops, 1u);
  EXPECT_EQ(report.insert_of_present, 1u);
  EXPECT_EQ(report.delete_of_absent, 1u);
  EXPECT_EQ(report.duplicate_in_batch, 1u);
  EXPECT_EQ(report.total(), 6u);
  EXPECT_EQ(report.quarantined.size(), 6u);

  g.apply_batch(clean);
  g.reorganize();
  g.validate();
}

TEST(Sanitize, BatchDeclaredNewVerticesExtendTheValidRange) {
  const CsrGraph base =
      CsrGraph::from_edges(3, {{0, 1}}, std::vector<Label>(3, 0));
  DynamicGraph g(base);

  EdgeBatch batch;
  batch.new_vertex_labels = {{3, 7}};
  batch.updates = {{0, 3, +1}, {0, 4, +1}};
  QuarantineReport report;
  const EdgeBatch clean = sanitize_batch(g, batch, report);
  EXPECT_EQ(clean.updates.size(), 1u);  // the declared vertex passes
  EXPECT_EQ(report.out_of_range, 1u);   // the undeclared one does not
}

TEST(Sanitize, WellFormedBatchPassesThroughUntouched) {
  StreamFixture f(43);
  DynamicGraph g(f.stream.initial);
  QuarantineReport report;
  const EdgeBatch clean = sanitize_batch(g, f.stream.batches[0], report);
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(clean.updates, f.stream.batches[0].updates);
}

TEST(Sanitize, CorruptionInjectionOnlyAppends) {
  StreamFixture f(44);
  DynamicGraph g(f.stream.initial);
  EdgeBatch batch = f.stream.batches[0];
  const std::vector<EdgeUpdate> original = batch.updates;

  FaultInjector inj(6);
  inj.arm(fault_site::kBatchCorrupt, {1.0, 0});
  inject_batch_corruption(batch, &inj);
  ASSERT_GT(batch.updates.size(), original.size());

  QuarantineReport report;
  const EdgeBatch clean = sanitize_batch(g, batch, report);
  EXPECT_EQ(report.total(), batch.updates.size() - original.size());
  EXPECT_EQ(clean.updates, original);  // exactly the garbage was removed
}

// ---------------------------------------------------------------------------
// DeviceOomError coverage: DcsrCache::build under pressure.

TEST(DcsrCacheFaults, GenuineOomLeavesCacheClearedAndValid) {
  StreamFixture f(45);
  DynamicGraph g(f.stream.initial);
  gpusim::SimParams params;
  params.device_memory_bytes = 1 << 10;  // 1 KiB device: nothing fits
  gpusim::Device dev(params);
  DcsrCache cache;

  try {
    cache.build(g, select_by_degree(g), 64ull << 20, dev, dev.counters());
    FAIL() << "build fit a multi-megabyte blob into a 1 KiB device";
  } catch (const gpusim::DeviceOomError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeviceOom);
    EXPECT_FALSE(e.transient());
    EXPECT_GT(e.requested, e.available);
  }
  EXPECT_TRUE(cache.empty());
  cache.validate();  // the failed build left no half-initialized state
}

TEST(DcsrCacheFaults, InjectedAllocAndDmaFaultsAreExceptionSafe) {
  StreamFixture f(46);
  DynamicGraph g(f.stream.initial);
  gpusim::SimParams params;
  params.device_memory_bytes = 64ull << 20;
  gpusim::Device dev(params);
  FaultInjector inj(9);
  dev.set_fault_injector(&inj);
  DcsrCache cache;
  const std::vector<VertexId> order = select_by_degree(g);

  inj.arm(fault_site::kDeviceAlloc, {0.0, 1});
  EXPECT_THROW(cache.build(g, order, 1 << 20, dev, dev.counters()),
               gpusim::DeviceOomError);
  EXPECT_TRUE(cache.empty());
  cache.validate();

  inj.disarm_all();
  inj.arm(fault_site::kDeviceDma, {0.0, 1});
  EXPECT_THROW(cache.build(g, order, 1 << 20, dev, dev.counters()),
               gpusim::DeviceDmaError);
  EXPECT_TRUE(cache.empty());
  cache.validate();

  // With the injector quiet the same build succeeds outright.
  inj.disarm_all();
  cache.build(g, order, 1 << 20, dev, dev.counters());
  EXPECT_FALSE(cache.empty());
  cache.validate(&g);
}

TEST(SimtExecutorFaults, WatchdogCancelsHungKernel) {
  gpusim::SimtExecutor exec(2);
  FaultInjector inj(7);
  inj.arm(fault_site::kKernelHang, {0.0, 1});
  exec.set_fault_injector(&inj);
  exec.set_watchdog_timeout_ms(1.0);
  try {
    exec.for_each_item(4, 1, [](std::size_t, std::size_t) {});
    FAIL() << "armed kernel.hang site did not fire";
  } catch (const gpusim::KernelTimeoutError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kKernelTimeout);
    EXPECT_TRUE(e.transient());
    EXPECT_DOUBLE_EQ(e.timeout_ms, 1.0);
  }
  // The executor survives the cancelled kernel.
  exec.for_each_item(4, 1, [](std::size_t, std::size_t) {});
}

// ---------------------------------------------------------------------------
// Pipeline recovery ladder.

TEST(PipelineFaults, TransientKernelFaultRetriesTransparently) {
  StreamFixture f(47);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(11);
  inj.arm(fault_site::kKernelLaunch, {0.0, 1});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  Pipeline pipe(f.stream.initial, q, opt);

  const BatchReport expect = reference.process_batch(f.stream.batches[0]);
  const BatchReport got = pipe.process_batch(f.stream.batches[0]);
  EXPECT_EQ(got.stats.signed_embeddings, expect.stats.signed_embeddings);
  EXPECT_GE(got.retries, 1u);
  EXPECT_FALSE(got.cpu_fallback);  // the second device attempt succeeds
  EXPECT_GE(got.faults_observed, 1u);
  pipe.graph().validate();
}

TEST(PipelineFaults, HungKernelIsCancelledAndRetried) {
  StreamFixture f(48);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(12);
  inj.arm(fault_site::kKernelHang, {0.0, 1});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  Pipeline pipe(f.stream.initial, q, opt);

  const BatchReport expect = reference.process_batch(f.stream.batches[0]);
  const BatchReport got = pipe.process_batch(f.stream.batches[0]);
  EXPECT_EQ(got.stats.signed_embeddings, expect.stats.signed_embeddings);
  EXPECT_GE(got.retries, 1u);
  pipe.graph().validate();
}

TEST(PipelineFaults, OomShrinksBudgetThenHealsAfterCleanBatches) {
  StreamFixture f(49, 400, 32, 128);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(13);
  inj.arm(fault_site::kDeviceAlloc, {0.0, 1});  // first device alloc OOMs
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.heal_after_clean_batches = 2;
  Pipeline pipe(f.stream.initial, q, opt);

  const BatchReport r0 = pipe.process_batch(f.stream.batches[0]);
  EXPECT_GE(r0.retries, 1u);
  EXPECT_EQ(r0.degradation_level, 1u);
  EXPECT_EQ(r0.effective_cache_budget, opt.cache_budget_bytes / 2);
  EXPECT_FALSE(r0.cpu_fallback);

  const BatchReport r1 = pipe.process_batch(f.stream.batches[1]);
  EXPECT_EQ(r1.degradation_level, 1u);  // one clean batch: still degraded
  const BatchReport r2 = pipe.process_batch(f.stream.batches[2]);
  EXPECT_EQ(r2.degradation_level, 0u);  // two clean batches: healed
  EXPECT_EQ(r2.effective_cache_budget, opt.cache_budget_bytes);

  std::int64_t expected = static_cast<std::int64_t>(
      reference_count_embeddings(f.stream.initial, q));
  for (int k = 0; k < 3; ++k) {
    expected += reference.process_batch(f.stream.batches[k])
                    .stats.signed_embeddings;
  }
  EXPECT_EQ(count_in(pipe.graph(), q), expected);
}

TEST(PipelineFaults, OomAtBudgetFloorFallsBackToCpu) {
  StreamFixture f(50);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(14);
  inj.arm(fault_site::kDeviceAlloc, {1.0, 0});  // every device alloc OOMs
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.cache_budget_bytes = 64 << 10;
  opt.recovery.min_cache_budget_bytes = 64 << 10;  // already at the floor
  opt.recovery.max_attempts = 2;
  Pipeline pipe(f.stream.initial, q, opt);

  const BatchReport expect = reference.process_batch(f.stream.batches[0]);
  const BatchReport got = pipe.process_batch(f.stream.batches[0]);
  EXPECT_TRUE(got.cpu_fallback);
  EXPECT_GE(got.retries, 2u);
  EXPECT_EQ(got.stats.signed_embeddings, expect.stats.signed_embeddings);
  pipe.graph().validate();
}

// The floor bounds degradation only: a budget configured below it is used
// as configured, never raised to the floor.
TEST(PipelineFaults, SubFloorBudgetIsUsedAsConfigured) {
  const StreamFixture f(71, 3000, 128, 1024);
  constexpr std::uint64_t kBudget = 24 << 10;
  PipelineOptions popt = fault_options(EngineKind::kNaiveDegree);
  popt.cache_budget_bytes = kBudget;
  Pipeline pipe(f.stream.initial, make_fig1_diamond(), popt);
  EXPECT_EQ(pipe.effective_cache_budget(), kBudget);

  server::MultiQueryOptions mopt;
  mopt.workers = 2;
  mopt.cache_budget_bytes = kBudget;
  mopt.estimator.num_walks = 2048;
  mopt.recovery.backoff_initial_ms = 0.0;
  server::MultiQueryEngine engine(f.stream.initial, mopt);
  engine.register_query(make_triangle());
  engine.register_query(make_fig1_diamond());
  engine.register_query(make_path(3));
  EXPECT_EQ(engine.effective_cache_budget(), kBudget);

  for (std::size_t k = 0; k < 3; ++k) {
    const BatchReport r = pipe.process_batch(f.stream.batches[k]);
    EXPECT_EQ(r.effective_cache_budget, kBudget) << "batch " << k;
    EXPECT_GT(r.cache_bytes, 0u) << "batch " << k;
    EXPECT_LE(r.cache_bytes, kBudget) << "batch " << k;
    const BatchReport shared =
        engine.process_batch(f.stream.batches[k]).shared;
    EXPECT_EQ(shared.effective_cache_budget, kBudget) << "batch " << k;
    EXPECT_LE(shared.cache_bytes, kBudget) << "batch " << k;
  }
}

TEST(PipelineFaults, ExhaustedRetriesRethrowWithGraphRolledBack) {
  StreamFixture f(51);
  const QueryGraph q = make_triangle();

  FaultInjector inj(15);
  inj.arm(fault_site::kKernelLaunch, {1.0, 0});  // every launch refused
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.max_attempts = 2;
  opt.recovery.cpu_fallback = false;
  Pipeline pipe(f.stream.initial, q, opt);

  const std::int64_t before = count_in(pipe.graph(), q);
  EXPECT_THROW(pipe.process_batch(f.stream.batches[0]),
               gpusim::KernelLaunchError);
  pipe.graph().validate();
  EXPECT_EQ(count_in(pipe.graph(), q), before);  // the batch rolled back
  EXPECT_FALSE(pipe.graph().has_pending_batch());

  // The failure was not sticky: quiet the injector and the batch applies.
  inj.set_enabled(false);
  pipe.process_batch(f.stream.batches[0]);
  pipe.graph().validate();
}

TEST(PipelineFaults, UnsanitizedMalformedBatchRollsBackAndRethrows) {
  StreamFixture f(52);
  const QueryGraph q = make_triangle();
  PipelineOptions opt = fault_options(EngineKind::kCpu);
  opt.recovery.sanitize_batches = false;
  Pipeline pipe(f.stream.initial, q, opt);

  EdgeBatch bad;
  bad.updates = {{0, 1'000'000, +1}};
  const std::int64_t before = count_in(pipe.graph(), q);
  EXPECT_THROW(pipe.process_batch(bad), Error);
  pipe.graph().validate();
  EXPECT_EQ(count_in(pipe.graph(), q), before);
  // The pipeline is still usable afterwards.
  pipe.process_batch(f.stream.batches[0]);
  pipe.graph().validate();
}

TEST(PipelineFaults, MalformedBatchIsQuarantinedAndReported) {
  StreamFixture f(53);
  const QueryGraph q = make_triangle();
  Pipeline pipe(f.stream.initial, q, fault_options(EngineKind::kCpu));
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kCpu));

  EdgeBatch bad = f.stream.batches[0];
  bad.updates.push_back({0, 1'000'000, +1});  // out of range
  bad.updates.push_back({2, 2, +1});          // self loop
  const BatchReport got = pipe.process_batch(bad);
  EXPECT_EQ(got.quarantine.out_of_range, 1u);
  EXPECT_EQ(got.quarantine.self_loops, 1u);
  EXPECT_EQ(got.quarantine.quarantined.size(), 2u);

  const BatchReport expect = reference.process_batch(f.stream.batches[0]);
  EXPECT_EQ(got.stats.signed_embeddings, expect.stats.signed_embeddings);
}

// A batch that falls back to the CPU reports the CPU attempt alone: the
// failed device attempts' estimate and pack work must not leak into it.
TEST(PipelineFaults, CpuFallbackReportsOnlyTheCpuAttempt) {
  StreamFixture f(55);
  const QueryGraph q = make_triangle();
  FaultInjector inj(17);
  inj.arm(fault_site::kKernelLaunch, {1.0, 0});  // every launch refused
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  Pipeline pipe(f.stream.initial, q, opt);
  shard::ShardedEngineOptions sopt = sharded_fault_options(2);
  sopt.fault_injector = &inj;
  shard::ShardedMatchEngine sharded(f.stream.initial, sopt);
  sharded.register_query(q);

  const BatchReport reports[] = {
      pipe.process_batch(f.stream.batches[0]),
      sharded.process_batch(f.stream.batches[0]).shared,
  };
  for (const BatchReport& r : reports) {
    EXPECT_TRUE(r.cpu_fallback);
    EXPECT_EQ(r.walks, 0u);
    EXPECT_EQ(r.cached_vertices, 0u);
    EXPECT_EQ(r.cache_bytes, 0u);
    EXPECT_EQ(r.sim_estimate_s, 0.0);
    EXPECT_EQ(r.sim_pack_s, 0.0);
  }
}

// ---------------------------------------------------------------------------
// The acceptance matrix: every site armed at p = 0.05 over a 200-batch GCSM
// run. The faulty pipeline must report per-batch signed counts BIT-IDENTICAL
// to a fault-free reference, finish with a validating graph, and demonstrate
// each rung of the ladder (retry, budget shrink, CPU fallback) at least once.

TEST(FaultMatrix, GcsmRun200BatchesBitIdenticalUnderFaults) {
  const UpdateStream stream = matrix_stream();
  ASSERT_EQ(stream.num_batches(), 200u);

  const QueryGraph q = make_triangle();
  const PipelineOptions clean_opt = fault_options(EngineKind::kGcsm);

  FaultInjector inj(kMatrixFaultSeed);
  inj.arm_all(0.05);
  PipelineOptions faulty_opt = clean_opt;
  faulty_opt.fault_injector = &inj;
  set_matrix_recovery(faulty_opt.recovery);

  Pipeline clean(stream.initial, q, clean_opt);
  Pipeline faulty(stream.initial, q, faulty_opt);

  std::uint64_t total_retries = 0;
  std::uint64_t total_quarantined = 0;
  std::uint64_t cpu_fallbacks = 0;
  std::uint32_t max_degradation = 0;
  std::string ladder;
  for (std::size_t k = 0; k < stream.num_batches(); ++k) {
    const BatchReport want = clean.process_batch(stream.batches[k]);
    const BatchReport got = faulty.process_batch(stream.batches[k]);
    ASSERT_EQ(got.stats.signed_embeddings, want.stats.signed_embeddings)
        << "counts diverged at batch " << k;
    ASSERT_EQ(got.stats.positive, want.stats.positive) << "batch " << k;
    ASSERT_EQ(got.stats.negative, want.stats.negative) << "batch " << k;
    total_retries += got.retries;
    total_quarantined += got.quarantine.total();
    cpu_fallbacks += got.cpu_fallback ? 1 : 0;
    max_degradation = std::max(max_degradation, got.degradation_level);
    ladder += ladder_line(k, got) + "\n";
  }
  // The ladder's decisions are pinned batch by batch, not only its counts:
  // a refactor of the ladder must retry, shrink, heal and escalate on
  // exactly the same batches.
  EXPECT_EQ(ladder, read_golden("ladder_pipeline.txt"));

  // Zero invariant failures at the end of the run.
  faulty.graph().validate();
  clean.graph().validate();
  EXPECT_EQ(faulty.graph().to_csr().edge_list(),
            clean.graph().to_csr().edge_list());

  // Every rung of the recovery ladder was exercised.
  EXPECT_GT(inj.fired_count(), 0u);
  EXPECT_GE(total_retries, 1u);
  EXPECT_GE(max_degradation, 1u);  // at least one cache-budget shrink
  EXPECT_GE(cpu_fallbacks, 1u);    // at least one CPU re-run
  EXPECT_GE(total_quarantined, 1u);
}

// The sharded engine's ladder over the first 60 batches of the same stream
// and faults: per-batch decisions plus each shard's own budget level.
TEST(FaultMatrix, ShardedLadderDecisionsPinned) {
  const UpdateStream stream = matrix_stream();
  FaultInjector inj(kMatrixFaultSeed);
  inj.arm_all(0.05);
  shard::ShardedEngineOptions opt = sharded_fault_options(4);
  opt.fault_injector = &inj;
  set_matrix_recovery(opt.recovery);
  shard::ShardedMatchEngine engine(stream.initial, opt);
  engine.register_query(make_triangle());

  std::string ladder;
  for (std::size_t k = 0; k < 60; ++k) {
    const shard::ShardedBatchReport r = engine.process_batch(stream.batches[k]);
    ladder += ladder_line(k, r.shared) + " shards=";
    for (std::size_t s = 0; s < opt.num_shards; ++s) {
      ladder += (s == 0 ? "" : ",");
      ladder += std::to_string(engine.degradation_level(s));
    }
    ladder += "\n";
  }
  EXPECT_EQ(ladder, read_golden("ladder_sharded.txt"));
}

// ---------------------------------------------------------------------------
// Backoff accounting: every ladder waits 0.5, 1.0, then 1.5 ms (the cap)
// across three failed attempts, the last of which escalates.

RecoveryOptions backoff_recovery() {
  RecoveryOptions rec = fault_options(EngineKind::kGcsm).recovery;
  rec.max_attempts = 3;
  rec.backoff_initial_ms = 0.5;
  rec.backoff_multiplier = 2.0;
  rec.backoff_max_ms = 1.5;
  return rec;
}

TEST(LadderBackoff, PipelineEscalatesToCpuAfterThreeWaits) {
  StreamFixture f(54);
  FaultInjector inj(16);
  inj.arm(fault_site::kKernelLaunch, {1.0, 0});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.recovery = backoff_recovery();
  opt.fault_injector = &inj;
  Pipeline pipe(f.stream.initial, make_triangle(), opt);

  const BatchReport r = pipe.process_batch(f.stream.batches[0]);
  EXPECT_EQ(r.retries, 3u);
  EXPECT_TRUE(r.cpu_fallback);
  EXPECT_DOUBLE_EQ(r.backoff_ms, 3.0);
}

TEST(LadderBackoff, ShardedEscalatesToCpuAfterThreeWaits) {
  StreamFixture f(54);
  FaultInjector inj(16);
  inj.arm(fault_site::kKernelLaunch, {1.0, 0});
  shard::ShardedEngineOptions opt = sharded_fault_options(2);
  opt.recovery = backoff_recovery();
  opt.fault_injector = &inj;
  shard::ShardedMatchEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());

  const shard::ShardedBatchReport r = engine.process_batch(f.stream.batches[0]);
  EXPECT_EQ(r.shared.retries, 3u);
  EXPECT_TRUE(r.shared.cpu_fallback);
  EXPECT_DOUBLE_EQ(r.shared.backoff_ms, 3.0);
}

server::MultiQueryOptions backoff_multi_options() {
  const PipelineOptions base = fault_options(EngineKind::kGcsm);
  server::MultiQueryOptions opt;
  opt.kind = base.kind;
  opt.workers = base.workers;
  opt.sim = base.sim;
  opt.cache_budget_bytes = base.cache_budget_bytes;
  opt.estimator = base.estimator;
  opt.recovery = backoff_recovery();
  return opt;
}

TEST(LadderBackoff, MultiQueryEscalatesOneQueryToCpuAfterThreeWaits) {
  StreamFixture f(54);
  FaultInjector inj(16);
  inj.arm(fault_site::kKernelLaunch, {1.0, 0});
  server::MultiQueryOptions opt = backoff_multi_options();
  opt.fault_injector = &inj;
  server::MultiQueryEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());

  const server::ServerBatchReport r = engine.process_batch(f.stream.batches[0]);
  ASSERT_EQ(r.queries.size(), 1u);
  EXPECT_EQ(r.queries[0].report.retries, 3u);
  EXPECT_TRUE(r.queries[0].report.cpu_fallback);
  EXPECT_DOUBLE_EQ(r.queries[0].report.backoff_ms, 3.0);
}

TEST(LadderBackoff, MultiQuerySharedPhasesDropTheCacheAfterThreeWaits) {
  StreamFixture f(54);
  FaultInjector inj(16);
  inj.arm(fault_site::kDeviceDma, {1.0, 0});
  server::MultiQueryOptions opt = backoff_multi_options();
  opt.fault_injector = &inj;
  server::MultiQueryEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());

  const server::ServerBatchReport r = engine.process_batch(f.stream.batches[0]);
  EXPECT_EQ(r.shared.retries, 3u);
  EXPECT_TRUE(r.cache_dropped);
  EXPECT_DOUBLE_EQ(r.shared.backoff_ms, 3.0);
}

}  // namespace
}  // namespace gcsm
