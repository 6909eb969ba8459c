// Multi-query serving engine suite (docs/MULTI_QUERY.md).
//
// The contract under test: a MultiQueryEngine serving N registered patterns
// from ONE graph / ONE device / ONE cache produces per-query match counts
// BIT-IDENTICAL to N independent single-query Pipelines fed the same stream
// — with and without injected faults, across register/unregister mid-stream,
// and across a kill-and-recover restart with durability on. The sharing is
// real: one frequency estimation and one cache build per batch regardless
// of query count, asserted via the `cache.builds` counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/reference_matcher.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "server/query_registry.hpp"
#include "util/durable_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace gcsm {
namespace {

using server::MultiQueryEngine;
using server::MultiQueryOptions;
using server::QueryId;
using server::QueryRegistry;
using server::RegisteredQuery;
using server::ServerBatchReport;

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

// The three standing patterns most of the suite serves together.
std::vector<QueryGraph> three_patterns() {
  std::vector<QueryGraph> qs;
  qs.push_back(make_triangle());
  qs.push_back(make_fig1_diamond());
  qs.push_back(make_path(4));
  return qs;
}

MultiQueryOptions multi_options(EngineKind kind) {
  MultiQueryOptions opt;
  opt.kind = kind;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 512;
  opt.recovery.backoff_initial_ms = 0.0;  // no sleeping in tests
  opt.recovery.watchdog_timeout_ms = 2.0;
  opt.check_invariants = true;
  return opt;
}

PipelineOptions single_options(EngineKind kind) {
  PipelineOptions opt;
  opt.kind = kind;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 512;
  opt.recovery.backoff_initial_ms = 0.0;
  opt.recovery.watchdog_timeout_ms = 2.0;
  opt.check_invariants = true;
  return opt;
}

// Unique durable directory per call (same rationale as durability_test).
std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = std::string(::testing::TempDir()) + "gcsm_mq_" +
                          tag + "_" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  io::ensure_dir(dir);
  return dir;
}

void expect_counts(const durable::DurableCounters& got,
                   const durable::DurableCounters& want) {
  EXPECT_EQ(got.batches_committed, want.batches_committed);
  EXPECT_EQ(got.cum_signed, want.cum_signed);
  EXPECT_EQ(got.cum_positive, want.cum_positive);
  EXPECT_EQ(got.cum_negative, want.cum_negative);
}

// Asserts one engine batch against the N reference pipelines, query by
// query, and returns the engine report.
ServerBatchReport expect_batch_bit_identical(
    MultiQueryEngine& engine, std::vector<std::unique_ptr<Pipeline>>& refs,
    const EdgeBatch& batch, std::size_t k) {
  const ServerBatchReport got = engine.process_batch(batch);
  EXPECT_EQ(got.queries.size(), refs.size());
  std::int64_t sum_signed = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const BatchReport want = refs[i]->process_batch(batch);
    EXPECT_EQ(got.queries[i].report.stats.signed_embeddings,
              want.stats.signed_embeddings)
        << "query " << i << " diverged at batch " << k;
    EXPECT_EQ(got.queries[i].report.stats.positive, want.stats.positive)
        << "query " << i << " batch " << k;
    EXPECT_EQ(got.queries[i].report.stats.negative, want.stats.negative)
        << "query " << i << " batch " << k;
    sum_signed += got.queries[i].report.stats.signed_embeddings;
  }
  EXPECT_EQ(got.shared.stats.signed_embeddings, sum_signed)
      << "aggregate is not the sum of per-query counts at batch " << k;
  return got;
}

// ---------------------------------------------------------------------------
// Bit-identity against independent pipelines.

TEST(MultiQuery, BitIdenticalToThreeIndependentPipelines) {
  const StreamFixture f(11);
  const std::vector<QueryGraph> patterns = three_patterns();

  MultiQueryEngine engine(f.stream.initial, multi_options(EngineKind::kGcsm));
  std::vector<std::unique_ptr<Pipeline>> refs;
  for (const QueryGraph& q : patterns) {
    engine.register_query(q);
    refs.push_back(std::make_unique<Pipeline>(
        f.stream.initial, q, single_options(EngineKind::kGcsm)));
  }

  for (std::size_t k = 0; k < f.stream.num_batches(); ++k) {
    expect_batch_bit_identical(engine, refs, f.stream.batches[k], k);
  }
  engine.graph().validate();
  EXPECT_EQ(engine.graph().to_csr().edge_list(),
            refs[0]->graph().to_csr().edge_list());
}

TEST(MultiQuery, BitIdenticalOnEveryEngineKind) {
  const StreamFixture f(12, 250, 64, 256);
  const std::vector<QueryGraph> patterns = {make_triangle(), make_path(4)};
  for (const EngineKind kind :
       {EngineKind::kGcsm, EngineKind::kZeroCopy, EngineKind::kUnifiedMemory,
        EngineKind::kNaiveDegree, EngineKind::kVsgm, EngineKind::kCpu}) {
    MultiQueryEngine engine(f.stream.initial, multi_options(kind));
    std::vector<std::unique_ptr<Pipeline>> refs;
    for (const QueryGraph& q : patterns) {
      engine.register_query(q);
      refs.push_back(std::make_unique<Pipeline>(f.stream.initial, q,
                                                single_options(kind)));
    }
    for (std::size_t k = 0; k < 3; ++k) {
      expect_batch_bit_identical(engine, refs, f.stream.batches[k], k);
    }
  }
}

// Different weights change cache arbitration (which vertices get cached),
// never counts: a cache miss falls back to zero-copy.
TEST(MultiQuery, WeightsAffectArbitrationNotCounts) {
  const StreamFixture f(13, 250, 64, 256);
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);

  MultiQueryEngine heavy(f.stream.initial, opt);
  heavy.register_query(make_triangle(), {}, 100.0);
  heavy.register_query(make_path(4), {}, 0.01);
  MultiQueryEngine even(f.stream.initial, opt);
  even.register_query(make_triangle(), {}, 1.0);
  even.register_query(make_path(4), {}, 1.0);

  for (std::size_t k = 0; k < 4; ++k) {
    const ServerBatchReport a = heavy.process_batch(f.stream.batches[k]);
    const ServerBatchReport b = even.process_batch(f.stream.batches[k]);
    for (std::size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].report.stats.signed_embeddings,
                b.queries[i].report.stats.signed_embeddings)
          << "weights changed counts at batch " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// One shared estimation + one cache build per batch, regardless of N.

TEST(MultiQuery, OneCacheBuildPerBatchRegardlessOfQueryCount) {
  const StreamFixture f(14, 250, 64, 256);
  metrics::Counter& builds =
      metrics::Registry::global().counter("cache.builds");

  MultiQueryEngine engine(f.stream.initial, multi_options(EngineKind::kGcsm));
  for (const QueryGraph& q : three_patterns()) engine.register_query(q);

  for (std::size_t k = 0; k < 4; ++k) {
    const std::uint64_t before = builds.value();
    const ServerBatchReport r = engine.process_batch(f.stream.batches[k]);
    EXPECT_EQ(builds.value() - before, 1u)
        << "expected exactly one shared cache build at batch " << k;
    // All three per-query estimates ran and fed the shared build.
    EXPECT_GT(r.shared.walks, 0u);
    EXPECT_GT(r.shared.cached_vertices, 0u);
  }
}

TEST(MultiQuery, PerQueryMetricScoping) {
  const StreamFixture f(15, 250, 64, 256);
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  MultiQueryEngine engine(f.stream.initial, opt);
  const QueryId a = engine.register_query(make_triangle());
  const QueryId b = engine.register_query(make_path(4));

  engine.process_batch(f.stream.batches[0]);
  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  // Per-query series live under "q<id>."; the shared phases keep the
  // process-wide names (the empty default prefix).
  EXPECT_GE(snap.counter_or("q" + std::to_string(a) + ".pipeline.batches"),
            1u);
  EXPECT_GE(snap.counter_or("q" + std::to_string(b) + ".pipeline.batches"),
            1u);
  EXPECT_GE(snap.counter_or("q" + std::to_string(a) + ".estimator.walks"),
            1u);
  EXPECT_GE(snap.counter_or("pipeline.batches"), 1u);
}

TEST(MultiQuery, PerQuerySeriesCountCommittedBatchesOnly) {
  // path(4) fails every attempt and the breaker never trips, so three
  // submissions of the batch fail as a unit and roll back although the
  // triangle matched each time. The client re-submits once path(4) is
  // healthy; only that commit may reach the per-query series.
  const StreamFixture f(15, 250, 64, 256);
  FaultInjector inj(15);
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.metric_prefix = "rolledback.";
  opt.breaker.enabled = false;
  opt.fault_injector = &inj;
  MultiQueryEngine engine(f.stream.initial, opt);
  const QueryId tri = engine.register_query(make_triangle());
  const QueryId path = engine.register_query(make_path(4));
  FaultSpec poison;
  poison.probability = 1.0;
  poison.match_query_id = path;
  inj.arm(fault_site::kMatchQuery, poison);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(engine.process_batch(f.stream.batches[0]), Error);
  }
  inj.disarm(fault_site::kMatchQuery);
  const ServerBatchReport r = engine.process_batch(f.stream.batches[0]);

  auto& reg = metrics::Registry::global();
  const std::string q = "rolledback.q" + std::to_string(tri) + ".";
  EXPECT_EQ(reg.counter("rolledback.pipeline.batches").value(), 1u);
  EXPECT_EQ(reg.counter(q + "pipeline.batches").value(), 1u);
  ASSERT_EQ(r.queries[0].id, tri);
  EXPECT_GT(r.queries[0].report.traffic.cache_hits, 0u);
  EXPECT_EQ(reg.counter(q + "cache.hits").value(),
            r.queries[0].report.traffic.cache_hits);
}

// ---------------------------------------------------------------------------
// Registry lifecycle.

TEST(MultiQuery, RegisterAndUnregisterMidStream) {
  const StreamFixture f(16);
  MultiQueryEngine engine(f.stream.initial, multi_options(EngineKind::kGcsm));
  const QueryId tri = engine.register_query(make_triangle());

  std::vector<std::unique_ptr<Pipeline>> refs;
  refs.push_back(std::make_unique<Pipeline>(
      f.stream.initial, make_triangle(), single_options(EngineKind::kGcsm)));

  for (std::size_t k = 0; k < 3; ++k) {
    expect_batch_bit_identical(engine, refs, f.stream.batches[k], k);
  }

  // Register a second pattern mid-stream: its reference pipeline starts
  // from the CURRENT graph state, exactly like a late subscriber would.
  const QueryId dia = engine.register_query(make_fig1_diamond());
  EXPECT_NE(dia, tri);
  refs.push_back(std::make_unique<Pipeline>(engine.graph().to_csr(),
                                            make_fig1_diamond(),
                                            single_options(EngineKind::kGcsm)));
  for (std::size_t k = 3; k < 6; ++k) {
    expect_batch_bit_identical(engine, refs, f.stream.batches[k], k);
  }

  // Unregister the first: only the diamond keeps matching.
  EXPECT_TRUE(engine.unregister_query(tri));
  EXPECT_FALSE(engine.unregister_query(tri));  // ids are never reused
  refs.erase(refs.begin());
  for (std::size_t k = 6; k < 8; ++k) {
    const ServerBatchReport got =
        expect_batch_bit_identical(engine, refs, f.stream.batches[k], k);
    ASSERT_EQ(got.queries.size(), 1u);
    EXPECT_EQ(got.queries[0].id, dia);
  }
}

TEST(MultiQuery, EmptyRegistryRejectsBatches) {
  const StreamFixture f(17, 200, 32, 64);
  MultiQueryEngine engine(f.stream.initial, multi_options(EngineKind::kCpu));
  try {
    engine.process_batch(f.stream.batches[0]);
    FAIL() << "expected Error(kConfig)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
  const QueryId id = engine.register_query(make_triangle());
  engine.process_batch(f.stream.batches[0]);
  EXPECT_TRUE(engine.unregister_query(id));
  EXPECT_THROW(engine.process_batch(f.stream.batches[1]), Error);
}

TEST(MultiQuery, SinksFireOnlyForTheirQuery) {
  const StreamFixture f(18, 250, 64, 256);
  MultiQueryEngine engine(f.stream.initial, multi_options(EngineKind::kGcsm));
  std::int64_t tri_signed = 0;
  std::int64_t path_signed = 0;
  const QueryId tri = engine.register_query(
      make_triangle(), [&](const MatchPlan&, std::span<const VertexId>,
                           int sign) { tri_signed += sign; });
  engine.register_query(make_path(4),
                        [&](const MatchPlan&, std::span<const VertexId>,
                            int sign) { path_signed += sign; });

  std::int64_t want_tri = 0;
  std::int64_t want_path = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const ServerBatchReport r = engine.process_batch(f.stream.batches[k]);
    want_tri += r.queries[0].report.stats.signed_embeddings;
    want_path += r.queries[1].report.stats.signed_embeddings;
  }
  EXPECT_EQ(tri_signed, want_tri);
  EXPECT_EQ(path_signed, want_path);
  // Signed deltas accumulated through the sink track the live count:
  // initial + Σ signed == current full count.
  const std::int64_t initial = static_cast<std::int64_t>(
      reference_count_embeddings(f.stream.initial, make_triangle()));
  EXPECT_EQ(static_cast<std::int64_t>(engine.count_current_embeddings(tri)),
            initial + tri_signed);
}

// ---------------------------------------------------------------------------
// Fault matrix: every site armed at p = 0.05, counts still bit-identical.

// The fault matrix's stream: 60 batches of 16 updates.
UpdateStream fault_matrix_stream() {
  Rng rng(2026);
  const CsrGraph base = generate_barabasi_albert(500, 4, 3, rng);
  UpdateStreamOptions sopt;
  sopt.pool_edge_count = 960;
  sopt.batch_size = 16;
  sopt.seed = 5;
  return make_update_stream(base, sopt);
}

// The fault matrix's engine options, armed by `inj`.
MultiQueryOptions fault_matrix_options(FaultInjector& inj) {
  inj.arm_all(0.05);
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.max_attempts = 2;
  opt.recovery.heal_after_clean_batches = 4;
  return opt;
}

constexpr std::uint64_t kMatrixFaultSeed = 0xFA05;

TEST(MultiQuery, FaultMatrixBitIdenticalAcrossQueries) {
  const UpdateStream stream = fault_matrix_stream();
  ASSERT_EQ(stream.num_batches(), 60u);

  const std::vector<QueryGraph> patterns = three_patterns();

  FaultInjector inj(kMatrixFaultSeed);
  MultiQueryEngine faulty(stream.initial, fault_matrix_options(inj));
  std::vector<std::unique_ptr<Pipeline>> clean;
  for (const QueryGraph& q : patterns) {
    faulty.register_query(q);
    clean.push_back(std::make_unique<Pipeline>(
        stream.initial, q, single_options(EngineKind::kGcsm)));
  }

  std::uint64_t total_retries = 0;
  for (std::size_t k = 0; k < stream.num_batches(); ++k) {
    const ServerBatchReport got =
        expect_batch_bit_identical(faulty, clean, stream.batches[k], k);
    total_retries += got.shared.retries;
    for (const server::QueryReport& q : got.queries) {
      total_retries += q.report.retries;
    }
  }
  faulty.graph().validate();
  EXPECT_EQ(faulty.graph().to_csr().edge_list(),
            clean[0]->graph().to_csr().edge_list());
  EXPECT_GT(inj.fired_count(), 0u);
  EXPECT_GE(total_retries, 1u);
}

// The same matrix with the ladder's decisions pinned batch by batch: the
// shared ladder's retries, budget and cache drop, and each query's own
// retries and CPU fallback. One match thread, because queries draw from the
// shared injector in the order their fan-out tasks run.
TEST(MultiQuery, FaultMatrixLadderDecisionsPinned) {
  const UpdateStream stream = fault_matrix_stream();
  FaultInjector inj(kMatrixFaultSeed);
  MultiQueryOptions opt = fault_matrix_options(inj);
  opt.match_parallelism = 1;
  MultiQueryEngine engine(stream.initial, opt);
  for (const QueryGraph& q : three_patterns()) engine.register_query(q);

  std::ostringstream ladder;
  for (std::size_t k = 0; k < stream.num_batches(); ++k) {
    const ServerBatchReport r = engine.process_batch(stream.batches[k]);
    ladder << k << " retries=" << r.shared.retries
           << " level=" << r.shared.degradation_level
           << " budget=" << r.shared.effective_cache_budget
           << " dropped=" << r.cache_dropped
           << " faults=" << r.shared.faults_observed << " queries=";
    for (std::size_t i = 0; i < r.queries.size(); ++i) {
      ladder << (i == 0 ? "" : ",") << r.queries[i].report.retries << "/"
             << r.queries[i].report.cpu_fallback;
    }
    ladder << "\n";
  }
  std::ifstream golden(std::string(GCSM_TEST_GOLDEN_DIR) +
                       "/ladder_multi_query.txt");
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(ladder.str(), want.str());
}

// ---------------------------------------------------------------------------
// Durability: the registry and the counts survive kill-and-recover.

TEST(MultiQuery, CleanRestartPreservesCountsAndRegistry) {
  const StreamFixture f(19, 300, 32, 256);
  const std::string dir = fresh_dir("restart");
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 3;

  // Uninterrupted non-durable reference over the full window.
  MultiQueryOptions ref_opt = multi_options(EngineKind::kGcsm);
  MultiQueryEngine ref(f.stream.initial, ref_opt);
  ref.register_query(make_triangle(), {}, 1.0);
  ref.register_query(make_fig1_diamond(), {}, 2.5);
  durable::DurableCounters want;
  for (std::size_t k = 0; k < 8; ++k) {
    const ServerBatchReport r = ref.process_batch(f.stream.batches[k]);
    want.batches_committed += 1;
    want.cum_signed += r.shared.stats.signed_embeddings;
    want.cum_positive += r.shared.stats.positive;
    want.cum_negative += r.shared.stats.negative;
  }

  {
    MultiQueryEngine a(f.stream.initial, opt);
    a.register_query(make_triangle(), {}, 1.0);
    a.register_query(make_fig1_diamond(), {}, 2.5);
    for (std::size_t k = 0; k < 5; ++k) a.process_batch(f.stream.batches[k]);
    // Destroyed here with no clean shutdown: the WAL + registry image are
    // the only survivors, like a kill at a batch boundary.
  }

  MultiQueryOptions ropt = opt;
  ropt.durability.recover_on_start = true;
  MultiQueryEngine b(f.stream.initial, ropt);
  ASSERT_EQ(b.registry().size(), 2u);
  EXPECT_EQ(b.registry().entries()[0].query.name(),
            make_triangle().name());
  EXPECT_DOUBLE_EQ(b.registry().entries()[1].weight, 2.5);
  EXPECT_EQ(b.cumulative().batches_committed, 5u);
  for (std::size_t k = 5; k < 8; ++k) b.process_batch(f.stream.batches[k]);
  expect_counts(b.cumulative(), want);
  EXPECT_EQ(b.graph().to_csr().edge_list(),
            ref.graph().to_csr().edge_list());
}

TEST(MultiQuery, CrashMidBatchRecoversBitIdentical) {
  const StreamFixture f(20, 300, 32, 256);
  const std::string dir = fresh_dir("crash");
  const std::size_t kBatches = 6;

  // Fault-free reference.
  MultiQueryEngine ref(f.stream.initial, multi_options(EngineKind::kGcsm));
  ref.register_query(make_triangle());
  ref.register_query(make_path(4));
  durable::DurableCounters want;
  for (std::size_t k = 0; k < kBatches; ++k) {
    const ServerBatchReport r = ref.process_batch(f.stream.batches[k]);
    want.batches_committed += 1;
    want.cum_signed += r.shared.stats.signed_embeddings;
    want.cum_positive += r.shared.stats.positive;
    want.cum_negative += r.shared.stats.negative;
  }

  // Crash on the 3rd crash.at probe (mid-WAL-write), then restart with
  // recovery and drive the stream to completion.
  FaultInjector inj(0xC4A5);
  inj.arm(fault_site::kCrashAt, {0.0, 3, 8});
  int crashes = 0;
  durable::DurableCounters got;
  for (int lives = 0; lives < 8; ++lives) {
    MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
    opt.durability.wal_dir = dir;
    opt.durability.snapshot_interval = 2;
    opt.durability.recover_on_start = lives > 0;
    opt.fault_injector = &inj;
    try {
      MultiQueryEngine engine(f.stream.initial, opt);
      if (engine.registry().empty()) {
        engine.register_query(make_triangle());
        engine.register_query(make_path(4));
      }
      for (std::size_t k = engine.cumulative().batches_committed;
           k < kBatches; ++k) {
        engine.process_batch(f.stream.batches[k]);
      }
      got = engine.cumulative();
      break;
    } catch (const CrashError&) {
      ++crashes;  // the engine died mid-write; loop restarts + recovers
    }
  }
  EXPECT_GE(crashes, 1);
  expect_counts(got, want);
}

// A registry change after committed batches only rewrites the registry
// image; snapshots follow snapshot_interval alone. The new query is
// anchored at the change, so old-registry batches never replay into it.
TEST(MultiQuery, RegistryChangeAfterCommitsSurvivesRestart) {
  const StreamFixture f(21, 300, 32, 256);
  const std::string dir = fresh_dir("regchange");
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 100;  // no snapshot fires

  durable::DurableCounters want;
  {
    MultiQueryEngine a(f.stream.initial, opt);
    a.register_query(make_triangle());
    for (std::size_t k = 0; k < 3; ++k) a.process_batch(f.stream.batches[k]);
    a.register_query(make_fig1_diamond());  // rewrites the image only
    for (std::size_t k = 3; k < 5; ++k) a.process_batch(f.stream.batches[k]);
    want = a.cumulative();
  }

  MultiQueryOptions ropt = opt;
  ropt.durability.recover_on_start = true;
  MultiQueryEngine b(f.stream.initial, ropt);
  ASSERT_EQ(b.registry().size(), 2u);
  EXPECT_FALSE(b.recovery_info().snapshot_loaded);
  // Every committed batch replays from the WAL, through the two-query
  // registry; those at or below the image's anchor replay graph-only.
  EXPECT_EQ(b.recovery_info().replay.size(), 5u);
  expect_counts(b.cumulative(), want);
}

// Unregistering the last query after commits leaves committed batches in
// the WAL and an empty registry. They all sit at or below the image's
// anchor, so recovery replays them graph-only and needs no query.
TEST(MultiQuery, EmptiedRegistryAfterCommitsSurvivesRestart) {
  const StreamFixture f(22, 300, 32, 256);
  const std::string dir = fresh_dir("emptied");
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 100;  // no snapshot fires

  MultiQueryEngine ref(f.stream.initial, multi_options(EngineKind::kGcsm));
  ref.register_query(make_triangle());
  {
    MultiQueryEngine a(f.stream.initial, opt);
    const QueryId q = a.register_query(make_triangle());
    for (std::size_t k = 0; k < 3; ++k) {
      a.process_batch(f.stream.batches[k]);
      ref.process_batch(f.stream.batches[k]);
    }
    EXPECT_TRUE(a.unregister_query(q));
  }

  MultiQueryEngine b(f.stream.initial, opt);
  EXPECT_TRUE(b.registry().empty());
  EXPECT_EQ(b.recovery_info().replay.size(), 3u);
  expect_counts(b.cumulative(), ref.cumulative());
  EXPECT_EQ(b.graph().to_csr().edge_list(), ref.graph().to_csr().edge_list());

  // A query registered after the restart is anchored past the replayed
  // batches, and its counts from there on agree with the reference's.
  const QueryId q = b.register_query(make_path(4));
  const QueryId ref_q = ref.register_query(make_path(4));
  for (std::size_t k = 3; k < 5; ++k) {
    b.process_batch(f.stream.batches[k]);
    ref.process_batch(f.stream.batches[k]);
  }
  EXPECT_EQ(b.query_health(q).counters, ref.query_health(ref_q).counters);
  MultiQueryEngine c(f.stream.initial, opt);
  EXPECT_EQ(c.query_health(q).counters, ref.query_health(ref_q).counters);
  expect_counts(c.cumulative(), b.cumulative());
}

// Registry churn between batches under a crash at every durable write. The
// query set each of the 7 batches runs under, by name: path(4) is swapped
// for the diamond before batch 2, cycle(4) joins before batch 4 and the
// triangle leaves before batch 5.
const std::vector<std::vector<std::string>>& churn_sets() {
  static const std::vector<std::vector<std::string>> sets = {
      {"triangle", "path"},         {"triangle", "path"},
      {"triangle", "fig1"},         {"triangle", "fig1"},
      {"triangle", "fig1", "cycle"}, {"fig1", "cycle"},
      {"fig1", "cycle"}};
  return sets;
}

QueryGraph churn_pattern(const std::string& name) {
  if (name == "triangle") return make_triangle();
  if (name == "path") return make_path(4);
  if (name == "fig1") return make_fig1_diamond();
  return make_cycle(4);
}

// Brings the registry, by query name, to `names`: drops first, then adds.
// A crash can land between two registry calls, so a restarted client runs
// this for the batch it resumes at.
void bring_registry_to(MultiQueryEngine& engine,
                       const std::vector<std::string>& names) {
  auto wanted = [&](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  std::vector<QueryId> drop;
  std::vector<std::string> present;
  for (const RegisteredQuery& e : engine.registry().entries()) {
    if (wanted(e.query.name())) {
      present.push_back(e.query.name());
    } else {
      drop.push_back(e.id);
    }
  }
  for (const QueryId id : drop) engine.unregister_query(id);
  for (const std::string& name : names) {
    if (std::find(present.begin(), present.end(), name) == present.end()) {
      engine.register_query(churn_pattern(name));
    }
  }
}

std::map<std::string, server::QueryCounters> counters_by_name(
    const MultiQueryEngine& engine) {
  std::map<std::string, server::QueryCounters> out;
  for (const RegisteredQuery& e : engine.registry().entries()) {
    out[e.query.name()] = e.health.counters;
  }
  return out;
}

TEST(MultiQuery, RegistryChurnCrashMatrixRecoversAtEveryProbe) {
  const StreamFixture f(23, 300, 32, 256);
  const std::size_t kBatches = churn_sets().size();
  ASSERT_GE(f.stream.batches.size(), kBatches);

  MultiQueryEngine ref(f.stream.initial, multi_options(EngineKind::kCpu));
  for (std::size_t k = 0; k < kBatches; ++k) {
    bring_registry_to(ref, churn_sets()[k]);
    ref.process_batch(f.stream.batches[k]);
  }
  const std::vector<Edge> want_edges = ref.graph().to_csr().edge_list();
  const auto want_queries = counters_by_name(ref);

  // Sweep the crash over every crash.at probe a full run makes (WAL appends
  // and fsyncs, the interval snapshot, the registry-image rewrites), with
  // nothing written and with a torn header.
  int cases = 0;
  int total_crashes = 0;
  for (const std::uint64_t byte : {0U, 11U}) {
    for (std::uint64_t nth = 1;; ++nth) {
      const std::string dir = fresh_dir("churn_" + std::to_string(byte) +
                                        "_" + std::to_string(nth));
      FaultInjector inj(0xC4A7);
      inj.arm(fault_site::kCrashAt, {0.0, nth, byte});
      MultiQueryOptions opt = multi_options(EngineKind::kCpu);
      opt.durability.wal_dir = dir;
      opt.durability.snapshot_interval = 3;
      opt.durability.fsync = false;
      opt.fault_injector = &inj;
      int crashes = 0;
      bool finished = false;
      durable::DurableCounters got;
      std::vector<Edge> got_edges;
      std::map<std::string, server::QueryCounters> got_queries;
      for (int lives = 0; lives < 4 && !finished; ++lives) {
        try {
          MultiQueryEngine engine(f.stream.initial, opt);
          for (std::size_t k = engine.cumulative().batches_committed;
               k < kBatches; ++k) {
            bring_registry_to(engine, churn_sets()[k]);
            engine.process_batch(f.stream.batches[k]);
          }
          got = engine.cumulative();
          got_edges = engine.graph().to_csr().edge_list();
          got_queries = counters_by_name(engine);
          finished = true;
        } catch (const CrashError&) {
          ++crashes;  // killed mid-write; restart, recover, resume
        }
      }
      ASSERT_TRUE(finished) << "crash storm: byte=" << byte << " nth=" << nth;
      ASSERT_EQ(got.batches_committed, ref.cumulative().batches_committed)
          << "byte=" << byte << " nth=" << nth;
      ASSERT_EQ(got.cum_signed, ref.cumulative().cum_signed)
          << "byte=" << byte << " nth=" << nth;
      ASSERT_EQ(got.cum_positive, ref.cumulative().cum_positive)
          << "byte=" << byte << " nth=" << nth;
      ASSERT_EQ(got.cum_negative, ref.cumulative().cum_negative)
          << "byte=" << byte << " nth=" << nth;
      ASSERT_EQ(got_edges, want_edges) << "byte=" << byte << " nth=" << nth;
      ASSERT_EQ(got_queries, want_queries)
          << "byte=" << byte << " nth=" << nth;
      ++cases;
      total_crashes += crashes;
      // nth beyond the probe count of a full run: this offset is done.
      if (crashes == 0) break;
      ASSERT_LT(nth, 300U) << "sweep did not terminate, byte=" << byte;
    }
  }
  // Several probes per batch, times 7 batches, times 2 offsets.
  EXPECT_GT(cases, 4 * static_cast<int>(kBatches));
  EXPECT_EQ(total_crashes, cases - 2);
}

// ---------------------------------------------------------------------------
// QueryRegistry durable image.

TEST(QueryRegistryImage, EncodeDecodeRoundTrip) {
  QueryRegistry reg;
  const QueryId a = reg.add(make_triangle(), 1.0);
  const QueryId b = reg.add(with_round_robin_labels(make_fig1_diamond(), 3),
                            2.25);
  EXPECT_TRUE(reg.remove(a));  // a gap: ids are never reused
  const QueryId c = reg.add(make_path(4), 0.5);
  EXPECT_NE(b, c);

  std::string why;
  const auto decoded = QueryRegistry::decode(reg.encode(), &why);
  ASSERT_TRUE(decoded.has_value()) << why;
  ASSERT_EQ(decoded->size(), 2u);
  const RegisteredQuery& db = decoded->entries()[0];
  EXPECT_EQ(db.id, b);
  EXPECT_DOUBLE_EQ(db.weight, 2.25);
  EXPECT_EQ(db.query.name(), with_round_robin_labels(make_fig1_diamond(), 3)
                                 .name());
  EXPECT_EQ(db.query.num_vertices(),
            make_fig1_diamond().num_vertices());
  EXPECT_EQ(db.query.num_edges(), make_fig1_diamond().num_edges());
  for (std::uint32_t v = 0; v < db.query.num_vertices(); ++v) {
    EXPECT_EQ(db.query.label(v),
              with_round_robin_labels(make_fig1_diamond(), 3).label(v));
  }
  // New ids in the decoded registry continue past the high-water mark.
  QueryRegistry reborn = *decoded;
  EXPECT_GT(reborn.add(make_triangle()), c);
}

TEST(QueryRegistryImage, DamageIsDetectedNotDeserialized) {
  QueryRegistry reg;
  reg.add(make_triangle(), 1.0);
  const std::string image = reg.encode();
  std::string why;

  // Truncation at every prefix length must fail cleanly, never crash.
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_FALSE(
        QueryRegistry::decode(std::string_view(image.data(), len), &why)
            .has_value())
        << "truncation to " << len << " bytes decoded";
  }
  // A flipped bit anywhere trips the CRC (or a bounds check).
  for (std::size_t pos = 0; pos < image.size(); pos += 7) {
    std::string bad = image;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_FALSE(QueryRegistry::decode(bad, &why).has_value())
        << "bit flip at " << pos << " decoded";
  }
  EXPECT_FALSE(QueryRegistry::decode("GQRXnot-a-registry", &why).has_value());
  EXPECT_FALSE(why.empty());
}

TEST(QueryRegistryImage, RejectsNonPositiveWeights) {
  QueryRegistry reg;
  EXPECT_THROW(reg.add(make_triangle(), 0.0), Error);
  EXPECT_THROW(reg.add(make_triangle(), -1.0), Error);
  EXPECT_THROW(reg.add(make_triangle(),
                       std::numeric_limits<double>::infinity()),
               Error);
  EXPECT_TRUE(reg.empty());
}

// ---------------------------------------------------------------------------
// Registration churn at scale (docs/ROBUSTNESS.md, "Overload & admission
// control"): thousands of register/unregister cycles mid-stream must never
// reuse a QueryId, never grow the shared cache past its budget, and never
// perturb the surviving queries' counts.

TEST(MultiQuery, ThousandsOfChurnedQueriesLeaveSurvivorsBitIdentical) {
  const StreamFixture f(50, 300, 32, 512);  // 16 batches of 32
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.estimator.num_walks = 128;
  MultiQueryEngine engine(f.stream.initial, opt);
  const QueryId tri = engine.register_query(make_triangle());
  const QueryId pat = engine.register_query(make_path(3));

  PipelineOptions sopt = single_options(EngineKind::kGcsm);
  sopt.estimator.num_walks = 128;
  Pipeline ref_tri(f.stream.initial, make_triangle(), sopt);
  Pipeline ref_pat(f.stream.initial, make_path(3), sopt);

  constexpr std::size_t kRounds = 16;
  constexpr std::size_t kPerRound = 128;  // 2048 registrations in total
  QueryId last_id = pat;
  std::vector<QueryId> transients;
  std::uint64_t churned = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    // Last round's transients leave, this round's arrive: every batch is
    // processed with a different population of bystander queries.
    for (const QueryId id : transients) {
      EXPECT_TRUE(engine.unregister_query(id));
      EXPECT_FALSE(engine.unregister_query(id));  // ids are never reused
    }
    transients.clear();
    for (std::size_t i = 0; i < kPerRound; ++i) {
      const QueryId id = engine.register_query(
          i % 2 == 0 ? make_path(3) : make_triangle());
      EXPECT_GT(id, last_id) << "QueryId reused";
      last_id = id;
      transients.push_back(id);
      ++churned;
    }

    const ServerBatchReport got = engine.process_batch(f.stream.batches[k]);
    // The shared cache stays inside its budget no matter how many queries
    // have ever been registered.
    EXPECT_LE(got.shared.cache_bytes, opt.cache_budget_bytes);
    // Survivors first (reports are in ascending QueryId order).
    ASSERT_GE(got.queries.size(), 2u);
    ASSERT_EQ(got.queries[0].id, tri);
    ASSERT_EQ(got.queries[1].id, pat);
    const BatchReport want_tri = ref_tri.process_batch(f.stream.batches[k]);
    const BatchReport want_pat = ref_pat.process_batch(f.stream.batches[k]);
    EXPECT_EQ(got.queries[0].report.stats.signed_embeddings,
              want_tri.stats.signed_embeddings)
        << "triangle diverged at batch " << k;
    EXPECT_EQ(got.queries[0].report.stats.positive, want_tri.stats.positive);
    EXPECT_EQ(got.queries[0].report.stats.negative, want_tri.stats.negative);
    EXPECT_EQ(got.queries[1].report.stats.signed_embeddings,
              want_pat.stats.signed_embeddings)
        << "path diverged at batch " << k;
    EXPECT_EQ(got.queries[1].report.stats.positive, want_pat.stats.positive);
    EXPECT_EQ(got.queries[1].report.stats.negative, want_pat.stats.negative);
  }
  for (const QueryId id : transients) {
    EXPECT_TRUE(engine.unregister_query(id));
  }
  EXPECT_EQ(churned, kRounds * kPerRound);
  EXPECT_EQ(engine.registry().size(), 2u);
  EXPECT_EQ(static_cast<std::uint64_t>(last_id),
            static_cast<std::uint64_t>(pat) + churned);
}

TEST(MultiQuery, ChurnDuringCatchUpDebtKeepsExactlyOnce) {
  const StreamFixture f(51, 250, 32, 256);
  const std::string dir = fresh_dir("debtchurn");
  FaultInjector inj(0xC0DE);
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 100;
  opt.durability.fsync = false;
  opt.breaker.trip_after_failures = 1;
  opt.breaker.cooldown_batches = 2;
  opt.breaker.max_debt_batches = 64;

  MultiQueryEngine engine(f.stream.initial, opt);
  const QueryId tri = engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_fig1_diamond());
  FaultSpec spec;
  spec.probability = 1.0;
  spec.match_query_id = poison;
  inj.arm(fault_site::kMatchQuery, spec);

  MultiQueryOptions ref_opt = multi_options(EngineKind::kGcsm);
  MultiQueryEngine ref(f.stream.initial, ref_opt);
  const QueryId ref_tri = ref.register_query(make_triangle());
  const QueryId ref_poison = ref.register_query(make_fig1_diamond());

  // Batch 0 trips the poison query; batches 1-2 are its cooldown — and
  // ~100 transient queries REGISTER right through that debt window. A
  // registration only rewrites the registry image (an unregistration too —
  // covered below), so the WAL keeps the debt and the poison query still
  // replays it bit-exactly at rejoin. The transients churn out after the
  // rejoin, still mid-stream.
  QueryId last_id = poison;
  std::vector<QueryId> transients;
  bool rejoined = false;
  for (std::size_t k = 0; k < 6; ++k) {
    if (k == 1 || k == 2) {
      for (std::size_t i = 0; i < 50; ++i) {
        const QueryId id = engine.register_query(make_path(3));
        EXPECT_GT(id, last_id) << "QueryId reused during debt";
        last_id = id;
        transients.push_back(id);
      }
    }
    if (k == 3) inj.disarm(fault_site::kMatchQuery);
    if (k == 4) {  // rejoin landed in batch 3's commit: churn back out
      for (const QueryId id : transients) {
        EXPECT_TRUE(engine.unregister_query(id));
        EXPECT_FALSE(engine.unregister_query(id));  // ids are never reused
      }
      transients.clear();
    }
    const ServerBatchReport out = engine.process_batch(f.stream.batches[k]);
    ref.process_batch(f.stream.batches[k]);
    for (const auto& q : out.queries) {
      if (q.id == poison && q.rejoined) rejoined = true;
    }
  }
  EXPECT_TRUE(rejoined);

  // Exactly-once for the survivors: counters match the churn-free,
  // fault-free reference bit for bit.
  EXPECT_EQ(engine.query_health(poison).counters,
            ref.query_health(ref_poison).counters);
  EXPECT_EQ(engine.query_health(tri).counters,
            ref.query_health(ref_tri).counters);
  EXPECT_EQ(engine.cumulative().batches_committed,
            ref.cumulative().batches_committed);

  // And the churned registry recovers cleanly.
  MultiQueryOptions ropt = opt;
  ropt.fault_injector = nullptr;
  ropt.durability.recover_on_start = true;
  MultiQueryEngine recovered(f.stream.initial, ropt);
  EXPECT_EQ(recovered.registry().size(), 2u);
  EXPECT_EQ(recovered.query_health(poison).counters,
            engine.query_health(poison).counters);
}

// The other half of the churn-during-debt contract: an UNREGISTRATION
// while exact catch-up is owed compacts nothing either, so the WAL still
// covers the debt and the debtor re-joins by exact catch-up, not by the
// re-baseline fallback (Breaker.DebtOverflowRebaselines covers that).
TEST(MultiQuery, UnregisterDuringDebtRejoinsByExactCatchUp) {
  const StreamFixture f(52, 250, 32, 256);
  const std::string dir = fresh_dir("debtrebase");
  FaultInjector inj(0xBEEF);
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 100;
  opt.durability.fsync = false;
  opt.breaker.trip_after_failures = 1;
  opt.breaker.cooldown_batches = 2;

  MultiQueryEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_fig1_diamond());
  FaultSpec spec;
  spec.probability = 1.0;
  spec.match_query_id = poison;
  inj.arm(fault_site::kMatchQuery, spec);

  bool rejoined = false;
  bool rebaselined = false;
  for (std::size_t k = 0; k < 6; ++k) {
    if (k == 1) {  // register + unregister inside the debt window
      const QueryId t = engine.register_query(make_path(3));
      EXPECT_TRUE(engine.unregister_query(t));  // rewrites the image only
    }
    if (k == 3) inj.disarm(fault_site::kMatchQuery);
    const ServerBatchReport out = engine.process_batch(f.stream.batches[k]);
    for (const auto& q : out.queries) {
      if (q.id != poison) continue;
      rejoined = rejoined || q.rejoined;
      rebaselined = rebaselined || q.rebaselined;
    }
  }
  EXPECT_TRUE(rejoined);
  EXPECT_FALSE(rebaselined) << "the WAL covers the debt: replay, not recount";

  // The re-joined query tracks the true standing count: a reference engine
  // that saw every batch agrees on the CURRENT graph.
  MultiQueryEngine ref(f.stream.initial, multi_options(EngineKind::kGcsm));
  ref.register_query(make_triangle());
  const QueryId ref_poison = ref.register_query(make_fig1_diamond());
  for (std::size_t k = 0; k < 6; ++k) ref.process_batch(f.stream.batches[k]);
  EXPECT_EQ(engine.count_current_embeddings(poison),
            ref.count_current_embeddings(ref_poison));
}

}  // namespace
}  // namespace gcsm
