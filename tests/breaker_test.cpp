// Tenant-isolation suite for the multi-query engine's circuit breaker
// (docs/ROBUSTNESS.md, "Tenant isolation & circuit breaker").
//
// The contract under test: one poison query (the keyed `match.query` fault
// site at p = 1.0) trips to quarantine and every batch COMMITS for the
// healthy tenants with their per-batch counts bit-identical to a
// poison-free run; after the poison clears, a half-open probe re-admits
// the query through exact WAL catch-up and its cumulative counters land
// bit-identical to a fault-free run; a crash at ANY durable-write point
// during catch-up recovers to the same counters exactly once.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "server/query_health.hpp"
#include "server/query_registry.hpp"
#include "util/durable_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace gcsm {
namespace {

using server::BreakerOptions;
using server::HealthState;
using server::HealthTransition;
using server::MultiQueryEngine;
using server::MultiQueryOptions;
using server::QueryCounters;
using server::QueryHealth;
using server::QueryId;
using server::QueryRegistry;
using server::ServerBatchReport;
using server::decode_transition;
using server::encode_transition;

struct StreamFixture {
  explicit StreamFixture(int seed, VertexId n = 300, std::size_t batch = 64,
                         std::size_t pool = 384) {
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

MultiQueryOptions breaker_options() {
  MultiQueryOptions opt;
  opt.kind = EngineKind::kGcsm;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 256;
  opt.recovery.backoff_initial_ms = 0.0;  // no sleeping in tests
  opt.recovery.watchdog_timeout_ms = 2.0;
  opt.check_invariants = true;
  return opt;
}

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = std::string(::testing::TempDir()) + "gcsm_brk_" +
                          tag + "_" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  io::ensure_dir(dir);
  return dir;
}

FaultSpec poison_spec(QueryId id) {
  FaultSpec spec;
  spec.probability = 1.0;
  spec.match_query_id = id;
  return spec;
}

std::uint64_t counter_value(const char* name) {
  return metrics::Registry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// Poison-tenant isolation: every batch commits, healthy counts unchanged.

TEST(Breaker, PoisonedTenantIsolatedBitIdentical) {
  const StreamFixture f(21);
  FaultInjector inj(0xB0B0);
  MultiQueryOptions opt = breaker_options();
  opt.fault_injector = &inj;
  opt.breaker.trip_after_failures = 1;   // trip on the first exhaustion:
  opt.breaker.cooldown_batches = 1000;   // every batch must commit
  MultiQueryEngine engine(f.stream.initial, opt);
  const QueryId tri = engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_fig1_diamond());
  const QueryId path = engine.register_query(make_path(4));
  inj.arm(fault_site::kMatchQuery, poison_spec(poison));

  // Poison-free references for the two healthy tenants.
  PipelineOptions ref_opt;
  ref_opt.kind = EngineKind::kGcsm;
  ref_opt.workers = 2;
  ref_opt.cache_budget_bytes = 4 << 20;
  ref_opt.estimator.num_walks = 256;
  ref_opt.recovery.backoff_initial_ms = 0.0;
  ref_opt.check_invariants = true;
  Pipeline ref_tri(f.stream.initial, make_triangle(), ref_opt);
  Pipeline ref_path(f.stream.initial, make_path(4), ref_opt);

  const std::uint64_t trips_before = counter_value("server.breaker.trips");
  for (std::size_t k = 0; k < f.stream.num_batches(); ++k) {
    const EdgeBatch& batch = f.stream.batches[k];
    ServerBatchReport out;
    ASSERT_NO_THROW(out = engine.process_batch(batch))
        << "poisoned tenant failed the whole batch " << k;
    const BatchReport want_tri = ref_tri.process_batch(batch);
    const BatchReport want_path = ref_path.process_batch(batch);
    std::int64_t sum = 0;
    for (const auto& q : out.queries) {
      sum += q.report.stats.signed_embeddings;
      if (q.id == tri) {
        EXPECT_EQ(q.report.stats.signed_embeddings,
                  want_tri.stats.signed_embeddings)
            << "triangle diverged at batch " << k;
        EXPECT_EQ(q.report.stats.positive, want_tri.stats.positive);
        EXPECT_EQ(q.report.stats.negative, want_tri.stats.negative);
      } else if (q.id == path) {
        EXPECT_EQ(q.report.stats.signed_embeddings,
                  want_path.stats.signed_embeddings)
            << "path diverged at batch " << k;
      } else {
        // The poisoned tenant: trips on batch 0, skipped after, zero stats.
        EXPECT_EQ(q.report.stats.signed_embeddings, 0);
        EXPECT_EQ(q.report.stats.positive, 0u);
        if (k == 0) {
          EXPECT_TRUE(q.tripped);
        } else {
          EXPECT_TRUE(q.skipped);
        }
      }
    }
    EXPECT_EQ(out.shared.stats.signed_embeddings, sum)
        << "aggregate is not the sum of per-query stats at batch " << k;
    EXPECT_EQ(engine.cumulative().batches_committed, k + 1);
  }
  EXPECT_EQ(counter_value("server.breaker.trips") - trips_before, 1u);
  EXPECT_EQ(engine.query_health(poison).state, HealthState::kQuarantined);
  EXPECT_EQ(engine.query_health(poison).trips, 1u);
  EXPECT_EQ(engine.query_health(tri).state, HealthState::kHealthy);
  engine.graph().validate();
  EXPECT_EQ(engine.graph().to_csr().edge_list(),
            ref_tri.graph().to_csr().edge_list());
}

// Below the trip threshold the pre-breaker contract holds: the batch fails
// as a unit and NO trip is applied on a failed batch — but the in-memory
// streak persists, so resubmitting the batch trips and commits.
TEST(Breaker, BelowThresholdFailsBatchThenTripsOnResubmit) {
  const StreamFixture f(22);
  FaultInjector inj(0xB0B1);
  MultiQueryOptions opt = breaker_options();
  opt.fault_injector = &inj;
  opt.breaker.trip_after_failures = 2;
  opt.breaker.cooldown_batches = 1000;
  MultiQueryEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_path(4));
  inj.arm(fault_site::kMatchQuery, poison_spec(poison));

  EXPECT_THROW(engine.process_batch(f.stream.batches[0]), Error);
  EXPECT_EQ(engine.cumulative().batches_committed, 0u);
  EXPECT_EQ(engine.query_health(poison).state, HealthState::kHealthy);
  EXPECT_EQ(engine.query_health(poison).trips, 0u);

  // The client resubmits the failed batch; streak 1 -> 2 trips it.
  const ServerBatchReport out = engine.process_batch(f.stream.batches[0]);
  EXPECT_EQ(engine.cumulative().batches_committed, 1u);
  EXPECT_EQ(engine.query_health(poison).state, HealthState::kQuarantined);
  bool saw_trip = false;
  for (const auto& q : out.queries) saw_trip = saw_trip || q.tripped;
  EXPECT_TRUE(saw_trip);
}

// Breaker disabled: tripping never happens; the poisoned batch fails as a
// unit exactly like PR 5's engine.
TEST(Breaker, DisabledBreakerKeepsUnitBatchSemantics) {
  const StreamFixture f(23);
  FaultInjector inj(0xB0B2);
  MultiQueryOptions opt = breaker_options();
  opt.fault_injector = &inj;
  opt.breaker.enabled = false;
  opt.breaker.trip_after_failures = 1;
  MultiQueryEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_path(4));
  inj.arm(fault_site::kMatchQuery, poison_spec(poison));

  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(engine.process_batch(f.stream.batches[0]), Error);
    EXPECT_EQ(engine.cumulative().batches_committed, 0u);
    EXPECT_EQ(engine.query_health(poison).state, HealthState::kHealthy);
  }
}

// ---------------------------------------------------------------------------
// Exact catch-up: after the poison clears, cooldown elapses, the half-open
// probe passes and WAL catch-up replay brings the query's cumulative
// counters bit-identical to a fault-free run — including sink delivery.

// Batch 0 trips the diamond query (the batch commits), batches 1-2 tick its
// cooldown, the poison is cleared before batch 3, whose probe passes and
// re-admits the query via exact catch-up. With `roll_back_batch_1`, the
// first submission of batch 1 fails its graph apply on every rung and rolls
// back; the client re-submits it.
void check_exact_catch_up(const std::string& tag, bool roll_back_batch_1) {
  const StreamFixture f(24);
  const std::string dir = fresh_dir(tag);
  FaultInjector inj(0xCA7C);
  MultiQueryOptions opt = breaker_options();
  opt.fault_injector = &inj;
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 100;  // keep the WAL covering the debt
  opt.durability.fsync = false;
  opt.breaker.trip_after_failures = 1;
  opt.breaker.cooldown_batches = 2;
  opt.breaker.max_debt_batches = 64;

  std::int64_t sink_signed = 0;
  std::uint64_t sink_calls = 0;
  MatchSink sink = [&](const MatchPlan&, std::span<const VertexId>,
                       int sign) {
    sink_signed += sign;
    ++sink_calls;
  };

  MultiQueryEngine engine(f.stream.initial, opt);
  const QueryId tri = engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_fig1_diamond(), sink);
  inj.arm(fault_site::kMatchQuery, poison_spec(poison));

  // Fault-free reference over the same stream (durability off: counts are
  // storage-independent).
  std::int64_t ref_signed = 0;
  std::uint64_t ref_calls = 0;
  MatchSink ref_sink = [&](const MatchPlan&, std::span<const VertexId>,
                           int sign) {
    ref_signed += sign;
    ++ref_calls;
  };
  MultiQueryEngine ref(f.stream.initial, breaker_options());
  const QueryId ref_tri = ref.register_query(make_triangle());
  const QueryId ref_poison = ref.register_query(make_fig1_diamond(),
                                                ref_sink);

  const std::uint64_t rejoins_before =
      counter_value("server.breaker.rejoins");
  const std::uint64_t replayed_before =
      counter_value("server.catchup.batches_replayed");

  for (std::size_t k = 0; k < 6; ++k) {
    if (k == 3) inj.disarm(fault_site::kMatchQuery);
    if (k == 1 && roll_back_batch_1) {
      inj.arm(fault_site::kGraphApply, {1.0, 0});
      EXPECT_THROW(engine.process_batch(f.stream.batches[k]), Error);
      inj.disarm(fault_site::kGraphApply);
      EXPECT_EQ(engine.cumulative().batches_committed, 1u);
    }
    const ServerBatchReport out = engine.process_batch(f.stream.batches[k]);
    ref.process_batch(f.stream.batches[k]);
    for (const auto& q : out.queries) {
      if (q.id != poison) continue;
      if (k == 0) {
        EXPECT_TRUE(q.tripped);
      }
      if (k == 1 || k == 2) {
        EXPECT_TRUE(q.skipped);
      }
      if (k == 3) {
        EXPECT_TRUE(q.probed);
        EXPECT_TRUE(q.rejoined);
        EXPECT_FALSE(q.rebaselined);
      }
      if (k > 3) {
        EXPECT_FALSE(q.skipped);
        EXPECT_FALSE(q.probed);
      }
    }
  }

  // Cumulative per-query counters are bit-identical to the fault-free run.
  EXPECT_EQ(engine.query_health(poison).counters,
            ref.query_health(ref_poison).counters);
  EXPECT_EQ(engine.query_health(tri).counters,
            ref.query_health(ref_tri).counters);
  EXPECT_EQ(engine.query_health(poison).state, HealthState::kHealthy);
  // The catch-up correction folded into the commit marker keeps the
  // aggregate equal to the fault-free aggregate too.
  EXPECT_EQ(engine.cumulative().cum_signed, ref.cumulative().cum_signed);
  EXPECT_EQ(engine.cumulative().cum_positive, ref.cumulative().cum_positive);
  EXPECT_EQ(engine.cumulative().cum_negative, ref.cumulative().cum_negative);
  EXPECT_EQ(engine.cumulative().batches_committed,
            ref.cumulative().batches_committed);
  // Sink delivery: the outage window's embeddings arrived via catch-up
  // (no crash here, so exactly the fault-free delivery).
  EXPECT_EQ(sink_signed, ref_signed);
  EXPECT_EQ(sink_calls, ref_calls);
  EXPECT_EQ(counter_value("server.breaker.rejoins") - rejoins_before, 1u);
  // Seqs 1-4 are batches 0-3; the query re-matched batch 3 live, so the
  // replayed debt is seqs 1-3.
  EXPECT_EQ(counter_value("server.catchup.batches_replayed") -
                replayed_before,
            3u);

  // A restart after all of this recovers through the integrity gate with
  // the same counters and a healthy registry.
  MultiQueryOptions ropt = opt;
  ropt.fault_injector = nullptr;
  MultiQueryEngine recovered(f.stream.initial, ropt);
  EXPECT_EQ(recovered.cumulative().cum_signed, engine.cumulative().cum_signed);
  EXPECT_EQ(recovered.cumulative().batches_committed, 6u);
  EXPECT_EQ(recovered.query_health(poison).counters,
            engine.query_health(poison).counters);
  EXPECT_EQ(recovered.query_health(poison).state, HealthState::kHealthy);
}

TEST(Breaker, ExactCatchUpIsBitIdenticalToFaultFreeRun) {
  check_exact_catch_up("catchup", false);
}

// A batch that rolls back inside the debt window uses up no WAL seq, so the
// committed stream the catch-up replays has no hole: the query still
// re-joins exactly, not through a re-baseline.
TEST(Breaker, RolledBackBatchDuringQuarantineKeepsExactCatchUp) {
  check_exact_catch_up("catchup_rollback", true);
}

// Debt past the window overflows: re-join falls back to a full static
// recount re-baseline (no exact replay, counters re-anchored).
TEST(Breaker, DebtOverflowRebaselines) {
  const StreamFixture f(25);
  const std::string dir = fresh_dir("overflow");
  FaultInjector inj(0xDEB7);
  MultiQueryOptions opt = breaker_options();
  opt.fault_injector = &inj;
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 100;
  opt.durability.fsync = false;
  opt.breaker.trip_after_failures = 1;
  opt.breaker.cooldown_batches = 3;
  opt.breaker.max_debt_batches = 1;  // overflow almost immediately
  MultiQueryEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_path(4));
  inj.arm(fault_site::kMatchQuery, poison_spec(poison));

  const std::uint64_t rebase_before =
      counter_value("server.catchup.rebaselines");
  for (std::size_t k = 0; k < 5; ++k) {
    if (k == 1) inj.disarm(fault_site::kMatchQuery);
    const ServerBatchReport out = engine.process_batch(f.stream.batches[k]);
    if (k == 4) {
      bool rebaselined = false;
      for (const auto& q : out.queries) {
        rebaselined = rebaselined || q.rebaselined;
      }
      EXPECT_TRUE(rebaselined) << "overflowed re-join did not re-baseline";
    }
  }
  EXPECT_EQ(counter_value("server.catchup.rebaselines") - rebase_before, 1u);
  const QueryHealth& h = engine.query_health(poison);
  EXPECT_EQ(h.state, HealthState::kHealthy);
  EXPECT_FALSE(h.debt_overflow);
  // Re-baselined counters are the full static recount of the live graph.
  EXPECT_EQ(h.counters.positive, engine.count_current_embeddings(poison));
  EXPECT_EQ(h.counters.negative, 0u);
}

// ---------------------------------------------------------------------------
// Crash during catch-up: for EVERY durable-write crash point across the
// re-join batch, recovery + resubmission converge to the fault-free
// counters exactly once (sink delivery is at-least-once).

TEST(Breaker, KillDuringCatchUpRecoversExactlyOnce) {
  const StreamFixture f(26, 200, 48, 192);

  // Fault-free reference counters over batches 0-3.
  MultiQueryEngine ref(f.stream.initial, breaker_options());
  ref.register_query(make_triangle());
  const QueryId ref_poison = ref.register_query(make_path(4));
  std::uint64_t ref_calls = 0;
  ref.attach_sink(ref_poison,
                  [&](const MatchPlan&, std::span<const VertexId>, int) {
                    ++ref_calls;
                  });
  for (std::size_t k = 0; k < 4; ++k) ref.process_batch(f.stream.batches[k]);

  bool exhausted_crash_points = false;
  for (std::uint64_t n = 1; n <= 64 && !exhausted_crash_points; ++n) {
    const std::string dir =
        fresh_dir("crash_n" + std::to_string(n));
    FaultInjector inj(0xC4A6);
    MultiQueryOptions opt = breaker_options();
    opt.fault_injector = &inj;
    opt.durability.wal_dir = dir;
    opt.durability.snapshot_interval = 100;
    opt.breaker.trip_after_failures = 1;
    opt.breaker.cooldown_batches = 1;

    std::uint64_t sink_calls = 0;
    MatchSink sink = [&](const MatchPlan&, std::span<const VertexId>, int) {
      ++sink_calls;
    };

    QueryId poison = 0;
    // Phase A: poison trips on batch 0, batch 1 ticks the cooldown down.
    {
      MultiQueryEngine engine(f.stream.initial, opt);
      engine.register_query(make_triangle());
      poison = engine.register_query(make_path(4), sink);
      inj.arm(fault_site::kMatchQuery, poison_spec(poison));
      engine.process_batch(f.stream.batches[0]);
      engine.process_batch(f.stream.batches[1]);
      ASSERT_EQ(engine.query_health(poison).state,
                HealthState::kQuarantined);
    }

    // Phase B: restart with the crash armed on the nth durable write; the
    // probe on the next batch passes and catch-up runs under that sword.
    inj.disarm(fault_site::kMatchQuery);
    FaultSpec crash;
    crash.nth_hit = n;
    crash.crash_at_byte = 7;
    inj.arm(fault_site::kCrashAt, crash);

    bool crashed = false;
    std::size_t next_batch = 2;
    for (int life = 0; life < 4 && next_batch < 4; ++life) {
      try {
        MultiQueryEngine engine(f.stream.initial, opt);
        engine.attach_sink(poison, sink);
        next_batch =
            static_cast<std::size_t>(engine.cumulative().batches_committed);
        while (next_batch < 4) {
          engine.process_batch(f.stream.batches[next_batch]);
          ++next_batch;
        }
        // Converged: compare against the fault-free reference.
        EXPECT_EQ(engine.cumulative().batches_committed, 4u) << "n=" << n;
        EXPECT_EQ(engine.cumulative().cum_signed,
                  ref.cumulative().cum_signed)
            << "n=" << n;
        EXPECT_EQ(engine.cumulative().cum_positive,
                  ref.cumulative().cum_positive)
            << "n=" << n;
        EXPECT_EQ(engine.query_health(poison).counters,
                  ref.query_health(ref_poison).counters)
            << "n=" << n;
        EXPECT_EQ(engine.query_health(poison).state, HealthState::kHealthy)
            << "n=" << n;
      } catch (const CrashError&) {
        crashed = true;
        inj.disarm(fault_site::kCrashAt);  // one crash per scenario
      }
    }
    ASSERT_GE(next_batch, 4u) << "scenario n=" << n << " never converged";
    // Catch-up sink delivery is at-least-once across crashes.
    EXPECT_GE(sink_calls, ref_calls) << "n=" << n;
    if (!crashed) exhausted_crash_points = true;
  }
  EXPECT_TRUE(exhausted_crash_points)
      << "crash points never exhausted within the probe budget";
}

// ---------------------------------------------------------------------------
// Registry edge cases on a quarantined id.

TEST(Breaker, AttachSinkAndUnregisterOnQuarantinedId) {
  const StreamFixture f(27);
  const std::string dir = fresh_dir("unreg");
  FaultInjector inj(0xF0F0);
  MultiQueryOptions opt = breaker_options();
  opt.fault_injector = &inj;
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 100;
  opt.durability.fsync = false;
  opt.breaker.trip_after_failures = 1;
  opt.breaker.cooldown_batches = 1000;
  MultiQueryEngine engine(f.stream.initial, opt);
  const QueryId tri = engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_path(4));
  inj.arm(fault_site::kMatchQuery, poison_spec(poison));

  engine.process_batch(f.stream.batches[0]);  // trips
  engine.process_batch(f.stream.batches[1]);
  ASSERT_EQ(engine.query_health(poison).state, HealthState::kQuarantined);

  // attach_sink on a quarantined id is legal (fires once it re-joins).
  EXPECT_NO_THROW(engine.attach_sink(
      poison, [](const MatchPlan&, std::span<const VertexId>, int) {}));

  // unregister on a quarantined id is legal and takes no snapshot: the
  // removed query's contributions are in the image's aggregate anchor, so
  // the batches at or below it replay graph-only.
  EXPECT_TRUE(engine.unregister_query(poison));
  std::string why;
  EXPECT_FALSE(durable::load_snapshot_file(dir + "/graph.snap", &why)
                   .has_value())
      << "unregister took a snapshot outside snapshot_interval";

  const ServerBatchReport out = engine.process_batch(f.stream.batches[2]);
  EXPECT_EQ(out.queries.size(), 1u);
  EXPECT_EQ(out.queries[0].id, tri);

  // Restart: recovery replays the WAL past the anchor and converges.
  MultiQueryOptions ropt = opt;
  ropt.fault_injector = nullptr;
  MultiQueryEngine recovered(f.stream.initial, ropt);
  EXPECT_EQ(recovered.cumulative().batches_committed, 3u);
  EXPECT_EQ(recovered.cumulative().cum_signed,
            engine.cumulative().cum_signed);
  EXPECT_EQ(recovered.registry().entries().size(), 1u);
}

// While a quarantined query owes exact catch-up debt, every due interval
// snapshot is deferred, and a registration mid-debt takes none either; the
// interval snapshot fires at the first debt-free commit.
TEST(Breaker, DebtDefersIntervalSnapshotAcrossRegistration) {
  const StreamFixture f(28);
  const std::string dir = fresh_dir("defer");
  FaultInjector inj(0xDEF0);
  MultiQueryOptions opt = breaker_options();
  opt.fault_injector = &inj;
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 1;  // a snapshot is due every commit
  opt.durability.fsync = false;
  opt.breaker.trip_after_failures = 1;
  opt.breaker.cooldown_batches = 2;
  opt.breaker.max_debt_batches = 64;
  MultiQueryEngine engine(f.stream.initial, opt);
  engine.register_query(make_triangle());
  const QueryId poison = engine.register_query(make_path(4));
  inj.arm(fault_site::kMatchQuery, poison_spec(poison));

  const std::uint64_t deferred_before =
      counter_value("server.catchup.deferred_snapshots");

  engine.process_batch(f.stream.batches[0]);  // trips; snapshot deferred
  ASSERT_EQ(engine.query_health(poison).state, HealthState::kQuarantined);
  std::string why;
  EXPECT_FALSE(durable::load_snapshot_file(dir + "/graph.snap", &why)
                   .has_value())
      << "snapshot was not deferred while catch-up debt is owed";

  // Register mid-debt: the registration rewrites the image only.
  const QueryId late = engine.register_query(make_fig1_diamond());
  EXPECT_FALSE(durable::load_snapshot_file(dir + "/graph.snap", &why)
                   .has_value())
      << "registration compacted the WAL away from a debt holder";

  inj.disarm(fault_site::kMatchQuery);
  engine.process_batch(f.stream.batches[1]);  // cooldown 2 -> 1, deferred
  engine.process_batch(f.stream.batches[2]);  // cooldown 1 -> 0, deferred
  EXPECT_FALSE(durable::load_snapshot_file(dir + "/graph.snap", &why)
                   .has_value());
  EXPECT_GE(counter_value("server.catchup.deferred_snapshots") -
                deferred_before,
            3u);

  // Probe passes, exact catch-up drains the debt, and the same commit's
  // tail takes the deferred interval snapshot.
  const ServerBatchReport out = engine.process_batch(f.stream.batches[3]);
  bool rejoined = false;
  for (const auto& q : out.queries) rejoined = rejoined || q.rejoined;
  EXPECT_TRUE(rejoined);
  const auto snap = durable::load_snapshot_file(dir + "/graph.snap", &why);
  ASSERT_TRUE(snap.has_value())
      << "deferred snapshot did not fire once the debt drained: " << why;
  EXPECT_EQ(snap->counters.batches_committed, 4u);

  // Restart proves the whole dance recovers through the integrity gate.
  MultiQueryOptions ropt = opt;
  ropt.fault_injector = nullptr;
  MultiQueryEngine recovered(f.stream.initial, ropt);
  EXPECT_EQ(recovered.cumulative().batches_committed, 4u);
  EXPECT_EQ(recovered.cumulative().cum_signed,
            engine.cumulative().cum_signed);
  EXPECT_EQ(recovered.query_health(late).counters,
            engine.query_health(late).counters);
  EXPECT_EQ(recovered.query_health(poison).counters,
            engine.query_health(poison).counters);
}

// ---------------------------------------------------------------------------
// Codec pinning: GQRY v2 round-trips the health fields; v1 images still
// decode (health starts fresh); GSRV transitions round-trip and validate.

TEST(Breaker, RegistryV2RoundTripsHealthFields) {
  QueryRegistry reg;
  const QueryId a = reg.add(make_triangle(), 2.0);
  const QueryId b = reg.add(make_path(4), 1.0);
  reg.set_health_revision(7);
  durable::DurableCounters agg;
  agg.batches_committed = 12;
  agg.last_seq = 14;
  agg.cum_signed = -3;
  agg.cum_positive = 40;
  agg.cum_negative = 43;
  reg.set_aggregate(agg);
  QueryHealth& ha = reg.find_mutable(a)->health;
  ha.state = HealthState::kQuarantined;
  ha.debt_overflow = true;
  ha.last_applied_seq = 9;
  ha.trips = 3;
  ha.counters = QueryCounters{-5, 10, 15, 99};
  reg.find_mutable(b)->health.last_applied_seq = 14;

  std::string why;
  const auto decoded = QueryRegistry::decode(reg.encode(), &why);
  ASSERT_TRUE(decoded.has_value()) << why;
  EXPECT_EQ(decoded->health_revision(), 7u);
  EXPECT_EQ(decoded->aggregate(), agg);
  ASSERT_NE(decoded->find(a), nullptr);
  EXPECT_EQ(decoded->find(a)->health, reg.find(a)->health);
  EXPECT_EQ(decoded->find(b)->health, reg.find(b)->health);
  EXPECT_EQ(decoded->find(a)->weight, 2.0);
}

TEST(Breaker, RegistryV1ImageStillDecodes) {
  // Hand-built v1 image: no health-revision/aggregate header fields and no
  // per-entry health — exactly what the pre-breaker encoder wrote.
  const QueryGraph tri = make_triangle();
  std::string bytes;
  bytes.append("GQRY", 4);
  io::put_u32(bytes, 1);  // version
  io::put_u32(bytes, 2);  // next_id
  io::put_u64(bytes, 1);  // one entry
  io::put_u32(bytes, 1);  // id
  io::put_u64(bytes, std::bit_cast<std::uint64_t>(1.5));
  io::put_bytes(bytes, tri.name());
  io::put_u32(bytes, tri.num_vertices());
  for (std::uint32_t v = 0; v < tri.num_vertices(); ++v) {
    io::put_u32(bytes, static_cast<std::uint32_t>(tri.label(v)));
  }
  io::put_u64(bytes, tri.edges().size());
  for (const QueryEdge& e : tri.edges()) {
    io::put_u32(bytes, e.a);
    io::put_u32(bytes, e.b);
  }
  io::put_u32(bytes, io::crc32c(bytes));

  std::string why;
  const auto decoded = QueryRegistry::decode(bytes, &why);
  ASSERT_TRUE(decoded.has_value()) << why;
  ASSERT_EQ(decoded->entries().size(), 1u);
  EXPECT_EQ(decoded->entries()[0].weight, 1.5);
  // v1 carries no health: everything starts fresh.
  EXPECT_EQ(decoded->entries()[0].health, QueryHealth{});
  EXPECT_EQ(decoded->health_revision(), 0u);
  EXPECT_EQ(decoded->aggregate(), durable::DurableCounters{});
}

TEST(Breaker, HealthTransitionRoundTripAndValidation) {
  HealthTransition t;
  t.reason = HealthTransition::Reason::kRejoin;
  t.revision = 42;
  t.query = 3;
  QueryHealth h1;
  h1.state = HealthState::kQuarantined;
  h1.last_applied_seq = 5;
  h1.trips = 2;
  h1.counters = QueryCounters{7, 9, 2, 31};
  QueryHealth h2;
  h2.last_applied_seq = 11;
  t.table.emplace_back(1, h1);
  t.table.emplace_back(3, h2);
  t.aggregate.batches_committed = 11;
  t.aggregate.last_seq = 11;
  t.aggregate.cum_signed = 100;

  std::string why;
  const auto back = decode_transition(encode_transition(t), &why);
  ASSERT_TRUE(back.has_value()) << why;
  EXPECT_EQ(back->reason, t.reason);
  EXPECT_EQ(back->revision, 42u);
  EXPECT_EQ(back->query, 3u);
  ASSERT_EQ(back->table.size(), 2u);
  EXPECT_EQ(back->table[0].second, h1);
  EXPECT_EQ(back->table[1].second, h2);
  EXPECT_EQ(back->aggregate, t.aggregate);

  // Non-ascending ids are rejected, as is trailing garbage.
  HealthTransition bad = t;
  std::swap(bad.table[0], bad.table[1]);
  EXPECT_FALSE(decode_transition(encode_transition(bad), &why).has_value());
  std::string trailing = encode_transition(t);
  trailing.push_back('\0');
  EXPECT_FALSE(decode_transition(trailing, &why).has_value());
}

}  // namespace
}  // namespace gcsm
