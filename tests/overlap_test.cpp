// Pipelined batch-schedule suite (docs/MULTI_QUERY.md, "Pipelined
// schedule").
//
// The contract under test: process_stream — which stages batch t+1's CPU
// front half (sanitize + estimate) on the match pool during batch t's
// fan-out, packs once that fan-out has returned, and surfaces reports and
// sinks only after each batch's commit — produces per-query counts
// BIT-IDENTICAL to the serial process_batch loop, surfaces its results in
// batch order with sinks flushed before each report, and keeps every
// internal invariant under concurrent fault injection (the pipeline-tsan
// preset's target).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/reference_matcher.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "util/durable_io.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace gcsm {
namespace {

using server::MultiQueryEngine;
using server::MultiQueryOptions;
using server::QueryId;
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

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = std::string(::testing::TempDir()) + "gcsm_ovl_" +
                          tag + "_" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  io::ensure_dir(dir);
  return dir;
}

// Per batch, per query: the signed-embedding witness both schedules must
// agree on.
using CountMatrix = std::vector<std::vector<std::int64_t>>;

CountMatrix counts_of(const std::vector<ServerBatchReport>& reports) {
  CountMatrix m;
  for (const ServerBatchReport& r : reports) {
    std::vector<std::int64_t> row;
    for (const server::QueryReport& q : r.queries) {
      row.push_back(q.report.stats.signed_embeddings);
    }
    m.push_back(std::move(row));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Bit-identity against the serial schedule.

TEST(Overlap, StreamBitIdenticalToSerialSchedule) {
  const StreamFixture f(51);
  const std::vector<QueryGraph> patterns = {make_triangle(),
                                            make_fig1_diamond(),
                                            make_path(4)};
  metrics::Counter& overlap =
      metrics::Registry::global().counter(metric::kPipelineOverlapBatches);
  metrics::Counter& staged = metrics::Registry::global().counter(
      metric::kPipelineOverlapStagedEstimates);

  MultiQueryEngine serial(f.stream.initial, multi_options(EngineKind::kGcsm));
  MultiQueryEngine piped(f.stream.initial, multi_options(EngineKind::kGcsm));
  for (const QueryGraph& q : patterns) {
    serial.register_query(q);
    piped.register_query(q);
  }

  std::vector<ServerBatchReport> want;
  for (const EdgeBatch& b : f.stream.batches) {
    want.push_back(serial.process_batch(b));
  }

  const std::uint64_t overlap0 = overlap.value();
  const std::uint64_t staged0 = staged.value();
  std::vector<ServerBatchReport> got;
  piped.process_stream(f.stream.batches,
                       [&](ServerBatchReport&& r) {
                         got.push_back(std::move(r));
                       });

  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(counts_of(got), counts_of(want));
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].shared.stats.signed_embeddings,
              want[k].shared.stats.signed_embeddings)
        << "aggregate diverged at batch " << k;
  }
  piped.graph().validate();
  EXPECT_EQ(piped.graph().to_csr().edge_list(),
            serial.graph().to_csr().edge_list());
  // Every batch went through the pipelined path, and every batch with a
  // successor had its estimate staged on the pool.
  EXPECT_EQ(overlap.value() - overlap0, f.stream.num_batches());
  EXPECT_EQ(staged.value() - staged0, f.stream.num_batches() - 1);
}

TEST(Overlap, StreamMatchesSerialOnEveryEngineKind) {
  const StreamFixture f(52, 250, 64, 256);
  const std::vector<QueryGraph> patterns = {make_triangle(), make_path(4)};
  for (const EngineKind kind :
       {EngineKind::kGcsm, EngineKind::kZeroCopy, EngineKind::kUnifiedMemory,
        EngineKind::kNaiveDegree, EngineKind::kVsgm, EngineKind::kCpu}) {
    MultiQueryEngine serial(f.stream.initial, multi_options(kind));
    MultiQueryEngine piped(f.stream.initial, multi_options(kind));
    for (const QueryGraph& q : patterns) {
      serial.register_query(q);
      piped.register_query(q);
    }
    std::vector<ServerBatchReport> want;
    for (const EdgeBatch& b : f.stream.batches) {
      want.push_back(serial.process_batch(b));
    }
    std::vector<ServerBatchReport> got;
    piped.process_stream(f.stream.batches, [&](ServerBatchReport&& r) {
      got.push_back(std::move(r));
    });
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(counts_of(got), counts_of(want))
        << "kind " << engine_kind_name(kind);
  }
}

TEST(Overlap, EmptyAndSingleBatchStreams) {
  const StreamFixture f(53, 200, 32, 64);
  MultiQueryEngine engine(f.stream.initial, multi_options(EngineKind::kCpu));
  engine.register_query(make_triangle());

  std::size_t surfaced = 0;
  engine.process_stream({}, [&](ServerBatchReport&&) { ++surfaced; });
  EXPECT_EQ(surfaced, 0u);

  MultiQueryEngine twin(f.stream.initial, multi_options(EngineKind::kCpu));
  twin.register_query(make_triangle());
  const ServerBatchReport want = twin.process_batch(f.stream.batches[0]);

  std::vector<ServerBatchReport> got;
  engine.process_stream({f.stream.batches[0]},
                        [&](ServerBatchReport&& r) {
                          got.push_back(std::move(r));
                        });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].queries[0].report.stats.signed_embeddings,
            want.queries[0].report.stats.signed_embeddings);
}

// ---------------------------------------------------------------------------
// New vertices: the pipelined schedule estimates batch t+1 before applying
// it, so the estimate sees records naming vertices the graph does not hold
// yet. Those records have no lists to estimate and must be skipped, not read
// (by GCSM's walks and by VSGM's k-hop search alike).

TEST(Overlap, StreamWithNewVerticesMatchesSerial) {
  const StreamFixture f(56, 250, 64, 128);
  ASSERT_GE(f.stream.num_batches(), 2u);
  const VertexId n = f.stream.initial.num_vertices();
  EdgeBatch grow;
  for (VertexId v = n; v < n + 4; ++v) {
    grow.new_vertex_labels.emplace_back(v, 0);
    grow.updates.push_back({0, v, +1});
    grow.updates.push_back({1, v, +1});
    for (VertexId w = n; w < v; ++w) grow.updates.push_back({w, v, +1});
  }
  const std::vector<EdgeBatch> batches = {f.stream.batches[0], grow,
                                          f.stream.batches[1]};
  const std::vector<QueryGraph> patterns = {make_triangle(),
                                            make_fig1_diamond()};

  for (const EngineKind kind : {EngineKind::kGcsm, EngineKind::kVsgm}) {
    MultiQueryEngine serial(f.stream.initial, multi_options(kind));
    MultiQueryEngine piped(f.stream.initial, multi_options(kind));
    for (const QueryGraph& q : patterns) {
      serial.register_query(q);
      piped.register_query(q);
    }
    std::vector<ServerBatchReport> want;
    for (const EdgeBatch& b : batches) want.push_back(serial.process_batch(b));
    std::vector<ServerBatchReport> got;
    piped.process_stream(batches, [&](ServerBatchReport&& r) {
      got.push_back(std::move(r));
    });

    ASSERT_EQ(got.size(), want.size()) << engine_kind_name(kind);
    EXPECT_EQ(counts_of(got), counts_of(want)) << engine_kind_name(kind);
    EXPECT_GT(want[1].shared.stats.positive, 0u);  // the K4 of new vertices
    EXPECT_EQ(piped.graph().num_vertices(), n + 4);
  }
}

// ---------------------------------------------------------------------------
// Surfacing order: in batch order, sinks before their report.

TEST(Overlap, SinksFlushBeforeTheirReportInBatchOrder) {
  const StreamFixture f(54, 250, 64, 256);
  MultiQueryEngine piped(f.stream.initial, multi_options(EngineKind::kGcsm));
  std::int64_t sink_signed = 0;
  piped.register_query(make_triangle(),
                       [&](const MatchPlan&, std::span<const VertexId>,
                           int sign) { sink_signed += sign; });
  piped.register_query(make_path(4));

  // When batch k's report surfaces, the triangle sink must already have
  // seen every embedding up to and including batch k — and none beyond
  // (the next batch's buffer flushes only after this report).
  std::int64_t expect_signed = 0;
  std::size_t surfaced = 0;
  piped.process_stream(f.stream.batches, [&](ServerBatchReport&& r) {
    expect_signed += r.queries[0].report.stats.signed_embeddings;
    EXPECT_EQ(sink_signed, expect_signed) << "at report " << surfaced;
    ++surfaced;
  });
  EXPECT_EQ(surfaced, f.stream.num_batches());
  // The deferred per-query buffers replayed the exact signed total: the
  // live count equals initial + everything the subscriber saw.
  const std::int64_t initial = static_cast<std::int64_t>(
      reference_count_embeddings(f.stream.initial, make_triangle()));
  EXPECT_EQ(static_cast<std::int64_t>(
                piped.count_current_embeddings(piped.registry().entries()[0].id)),
            initial + sink_signed);
}

// ---------------------------------------------------------------------------
// Roles-staleness: a breaker trip between t and t+1 invalidates the staged
// estimate (computed under t's roles); it is discarded and recomputed, and
// counts still match the serial schedule (p = 1.0 faults are deterministic,
// so both schedules trip identically).

TEST(Overlap, StagedEstimateDiscardedWhenRolesChange) {
  const StreamFixture f(55, 250, 64, 512);
  metrics::Counter& discards = metrics::Registry::global().counter(
      metric::kPipelineOverlapStagedDiscards);

  auto poisoned_options = [&](FaultInjector* inj) {
    MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
    opt.fault_injector = inj;
    opt.recovery.max_attempts = 2;
    opt.breaker.trip_after_failures = 1;
    opt.breaker.cooldown_batches = 1000;  // never re-joins
    return opt;
  };

  FaultInjector inj_serial(71);
  MultiQueryEngine serial(f.stream.initial, poisoned_options(&inj_serial));
  FaultInjector inj_piped(71);
  MultiQueryEngine piped(f.stream.initial, poisoned_options(&inj_piped));

  QueryId poison = 0;
  for (MultiQueryEngine* e : {&serial, &piped}) {
    const QueryId a = e->register_query(make_triangle());
    e->register_query(make_path(4));
    poison = a;
  }
  FaultSpec spec;
  spec.probability = 1.0;
  spec.match_query_id = poison;
  inj_serial.arm(fault_site::kMatchQuery, spec);
  inj_piped.arm(fault_site::kMatchQuery, spec);

  std::vector<ServerBatchReport> want;
  for (std::size_t k = 0; k < 6; ++k) {
    want.push_back(serial.process_batch(f.stream.batches[k]));
  }
  EXPECT_TRUE(want[0].queries[0].tripped);

  const std::uint64_t discards0 = discards.value();
  std::vector<ServerBatchReport> got;
  piped.process_stream(
      {f.stream.batches.begin(), f.stream.batches.begin() + 6},
      [&](ServerBatchReport&& r) { got.push_back(std::move(r)); });

  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(counts_of(got), counts_of(want));
  EXPECT_TRUE(got[0].queries[0].tripped);
  // Batch 1's estimate was staged under batch 0's roles (poison still
  // matching); the trip made it stale.
  EXPECT_GE(discards.value() - discards0, 1u);
}

// ---------------------------------------------------------------------------
// Durable streams: reports surface only after their commit lands, and a
// recovering restart agrees with the stream's final state.

TEST(Overlap, DurableStreamSurfacesCommittedReportsAndRecovers) {
  const StreamFixture f(56, 300, 32, 256);
  const std::string dir = fresh_dir("durable");

  // Non-durable serial reference.
  MultiQueryEngine ref(f.stream.initial, multi_options(EngineKind::kGcsm));
  ref.register_query(make_triangle());
  ref.register_query(make_path(4));
  durable::DurableCounters want;
  for (const EdgeBatch& b : f.stream.batches) {
    const ServerBatchReport r = ref.process_batch(b);
    want.batches_committed += 1;
    want.cum_signed += r.shared.stats.signed_embeddings;
    want.cum_positive += r.shared.stats.positive;
    want.cum_negative += r.shared.stats.negative;
  }

  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 3;
  opt.durability.fsync = false;
  {
    MultiQueryEngine piped(f.stream.initial, opt);
    piped.register_query(make_triangle());
    piped.register_query(make_path(4));
    std::uint64_t last_seq = 0;
    piped.process_stream(f.stream.batches, [&](ServerBatchReport&& r) {
      // Durable surfacing order: ascending WAL seq, no gaps skipped.
      EXPECT_EQ(r.shared.wal_seq, last_seq + 1);
      last_seq = r.shared.wal_seq;
    });
    EXPECT_EQ(last_seq, f.stream.num_batches());
    EXPECT_EQ(piped.cumulative().batches_committed, f.stream.num_batches());
  }

  MultiQueryOptions ropt = opt;
  ropt.durability.recover_on_start = true;
  MultiQueryEngine back(f.stream.initial, ropt);
  EXPECT_EQ(back.cumulative().batches_committed, want.batches_committed);
  EXPECT_EQ(back.cumulative().cum_signed, want.cum_signed);
  EXPECT_EQ(back.cumulative().cum_positive, want.cum_positive);
  EXPECT_EQ(back.cumulative().cum_negative, want.cum_negative);
  EXPECT_EQ(back.graph().to_csr().edge_list(),
            ref.graph().to_csr().edge_list());
}

// ---------------------------------------------------------------------------
// Fault stress — the pipeline-tsan preset's target. Probabilistic fault
// draws change retry/trip schedules, so counts are NOT compared against a
// serial run here; the assertions are the schedule-invariant ones: the
// aggregate is always the sum of per-query counts, every batch surfaces
// exactly once in order, the graph stays valid, and the standing count a
// subscriber accumulated matches a from-scratch recount at the end.

TEST(Overlap, FaultStressKeepsInternalConsistency) {
  Rng rng(2027);
  // The update-stream pool clamps to the base edge count, so the graph must
  // carry >= 3200 edges for the 200-batch schedule below.
  const CsrGraph base = generate_barabasi_albert(900, 4, 3, rng);
  UpdateStreamOptions sopt;
  sopt.pool_edge_count = 3200;
  sopt.batch_size = 16;
  sopt.seed = 9;
  const UpdateStream stream = make_update_stream(base, sopt);
  ASSERT_EQ(stream.num_batches(), 200u);

  FaultInjector inj(0xF1A5);
  inj.arm_all(0.05);
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.max_attempts = 2;
  opt.recovery.heal_after_clean_batches = 4;
  opt.estimator.num_walks = 128;
  opt.check_invariants = false;  // races are the target here, not layout
  opt.breaker.trip_after_failures = 3;
  opt.breaker.cooldown_batches = 5;

  MultiQueryEngine engine(stream.initial, opt);
  std::int64_t sink_signed = 0;
  const QueryId tri = engine.register_query(
      make_triangle(), [&](const MatchPlan&, std::span<const VertexId>,
                           int sign) { sink_signed += sign; });
  for (int i = 0; i < 7; ++i) {
    engine.register_query(i % 2 == 0 ? make_path(3 + i % 3)
                                     : make_fig1_diamond());
  }

  std::size_t surfaced = 0;
  engine.process_stream(stream.batches, [&](ServerBatchReport&& r) {
    std::int64_t sum = 0;
    for (const server::QueryReport& q : r.queries) {
      sum += q.report.stats.signed_embeddings;
    }
    EXPECT_EQ(r.shared.stats.signed_embeddings, sum)
        << "aggregate != sum of per-query counts at report " << surfaced;
    ++surfaced;
  });
  EXPECT_EQ(surfaced, stream.num_batches());
  EXPECT_GT(inj.fired_count(), 0u);

  engine.graph().validate();
  // The subscriber's accumulated deltas + the initial standing count must
  // equal a from-scratch recount on the final graph — retries, trips,
  // quarantine catch-up and staged discards included.
  const std::int64_t initial = static_cast<std::int64_t>(
      reference_count_embeddings(stream.initial, make_triangle()));
  EXPECT_EQ(static_cast<std::int64_t>(engine.count_current_embeddings(tri)),
            initial + sink_signed);
}

}  // namespace
}  // namespace gcsm
