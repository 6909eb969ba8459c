// Multi-query serving engine: one dynamic graph, one (simulated) device,
// one DCSR cache — many standing queries (docs/MULTI_QUERY.md).
//
// The single-query Pipeline runs the paper's five phases per batch for one
// pattern. A production deployment serves many concurrent subscriptions over
// the same stream, and three of the five phases are query-independent or
// shareable:
//
//   shared, once per batch            per registered query
//   ------------------------------    ---------------------------------
//   1. apply ΔE_k to the graph        4. incremental delta-match, fanned
//   2. ONE frequency estimation          out on a util::ThreadPool (each
//      (per-query walk estimates         query owns its executor, metrics
//      combined by weight)               scope "q<id>.", optional sink)
//   3. ONE DCSR pack + DMA under
//      the shared budget
//   5. reorganize touched lists
//
// Cache arbitration: per-query estimates are weight-normalized and summed
// into one frequency vector; select_by_frequency orders the combined vector
// and the one cache build packs greedily under the shared budget, so the
// existing OOM degradation ladder (halve budget, heal on clean streaks)
// arbitrates budget across ALL queries at once. Because a cache miss falls
// back to zero-copy, cache content never changes match counts — per-query
// counts are bit-identical to N independent single-query Pipelines
// (tests/multi_query_test.cpp proves it, with and without injected faults).
//
// Tenant isolation (docs/ROBUSTNESS.md, "Tenant isolation & circuit
// breaker"): every query carries a QueryHealth state machine. A query that
// exhausts its whole per-query retry ladder (or blows the optional match
// deadline) on `breaker.trip_after_failures` consecutive batches trips to
// Quarantined: it is skipped in the phase-4 fan-out and the batch COMMITS
// for the healthy tenants instead of failing as a unit. A quarantined
// query's WAL position freezes; after `cooldown_batches` committed batches
// it half-open probes (results discarded), and a passing probe re-admits it
// through exact catch-up: the latest snapshot is restored into a shadow
// DynamicGraph and the query's missed committed batches are replayed
// match-only (sink delivery included) before atomic re-admission. Snapshot
// compaction is deferred while any query owes such catch-up debt; once the
// debt exceeds `max_debt_batches` (or durability is off) re-join falls back
// to a full static recount re-baseline instead.
//
// Recovery runs the one ladder at two levels: shared-phase failures roll
// the graph back and retry (device OOM shrinks the shared budget; exhausted
// retries drop the cache and serve zero-copy); per-query match failures
// retry and CPU-fall-back for that query alone. Durability logs each batch
// ONCE; health transitions ride the batch's commit unit as kServerState
// records ahead of its marker, and the registry image (per-query health +
// counters + an aggregate anchor) is rewritten after every commit so
// recovery can restart per-query bookkeeping from the last image and replay
// only the suffix (batches at or below the anchor replay graph-only).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/dcsr_cache.hpp"
#include "core/durability.hpp"
#include "core/frequency_estimator.hpp"
#include "core/phases.hpp"
#include "core/recovery.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simt_executor.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/update_stream.hpp"
#include "server/query_registry.hpp"
#include "util/check.hpp"
#include "util/parking.hpp"
#include "util/thread_pool.hpp"

namespace gcsm::server {

struct MultiQueryOptions {
  EngineKind kind = EngineKind::kGcsm;
  gpusim::SimParams sim;
  // Shared device cache budget arbitrated across every registered query.
  std::uint64_t cache_budget_bytes = 256ull << 20;
  EstimatorOptions estimator;
  std::size_t workers = 0;  // simulated blocks / host threads per query
  std::size_t grain = 2;
  gpusim::Schedule schedule = gpusim::Schedule::kWorkStealing;
  std::uint64_t seed = 7;
  bool check_invariants = GCSM_CHECKS_ENABLED != 0;
  RecoveryOptions recovery;
  // One WAL for the whole engine; the registry is persisted beside it.
  DurabilityOptions durability;
  // Per-query circuit breaker (server/query_health.hpp). `enabled` gates
  // TRIPPING only — probe/re-join machinery always runs, so a registry
  // recovered with quarantined queries heals even under breaker.enabled =
  // false.
  BreakerOptions breaker;
  FaultInjector* fault_injector = nullptr;
  // Scope of the SHARED phases' metrics/traces. Per-query series live under
  // metric_prefix + "q<id>." (e.g. "q3.pipeline.match_ms" with the default
  // empty prefix).
  std::string metric_prefix;
  // Host threads fanning the match phase out across queries (0 = auto).
  // Each query's match additionally uses its own executor with `workers`
  // simulated blocks.
  std::size_t match_parallelism = 0;
};

struct QueryReport {
  QueryId id = 0;
  std::string name;
  // stats / match times / traffic / retries / cpu_fallback are per query;
  // shared-phase fields stay zero here. Skipped / probed / tripped reports
  // carry ZERO stats (the aggregate is always the sum of the per-query
  // stats below).
  BatchReport report;
  // Breaker activity for this query on this batch.
  bool skipped = false;      // quarantined: no match ran
  bool probed = false;       // half-open probe ran (results discarded)
  bool tripped = false;      // this batch tripped the query to quarantine
  bool rejoined = false;     // re-admitted (stats are its batch delta again)
  bool rebaselined = false;  // re-join used the full static recount path
};

struct ServerBatchReport {
  // Shared-phase attribution: update/estimate/pack/reorg times, pack
  // traffic, quarantine, WAL seq, shared retries and the degradation state.
  // stats is the AGGREGATE across queries (what the commit marker records);
  // walks is the total across per-query estimates.
  BatchReport shared;
  // Registration order (ascending QueryId).
  std::vector<QueryReport> queries;
  // The shared ladder's terminal degradation fired: this batch was served
  // zero-copy with no cache build.
  bool cache_dropped = false;
};

// Receives each batch's report from process_stream once its commit is
// durable (immediately, when durability is off).
using BatchReportSink = std::function<void(ServerBatchReport&&)>;

class MultiQueryEngine {
 public:
  // With durability enabled and recover_on_start set, the constructor
  // restores the registry image, then the graph snapshot, then replays
  // committed WAL batches through the restored query set (sinks are not yet
  // attached, so no subscriber callback fires twice). Replay anchors the
  // aggregate counters at the newer of {registry-image anchor, snapshot
  // counters}: batches at or below the anchor replay graph-only (update +
  // reorg, no matching), the rest replay fully with per-query participation
  // decided by each query's recovered health and position, applying WAL
  // health-transition records in log order (only those with a revision
  // newer than the image's). The same integrity gate as Pipeline applies:
  // replay must reproduce the committed aggregate counters exactly or
  // Error(kRecovery) is thrown.
  MultiQueryEngine(const CsrGraph& initial, MultiQueryOptions options);

  // Registers a standing query. `sink` (optional) receives this query's
  // embeddings; `weight` is its share in cache arbitration. With durability
  // on, the registry image is rewritten before returning; no snapshot is
  // taken (snapshots follow snapshot_interval only). The query is anchored
  // at the current position, so recovery never replays an earlier batch
  // into it.
  QueryId register_query(QueryGraph query, MatchSink sink = {},
                         double weight = 1.0);
  // Unregisters; false when unknown. Durable like register_query. Legal on
  // a quarantined id (its debt is simply forgotten).
  bool unregister_query(QueryId id);
  // (Re-)attaches a subscriber callback, e.g. after recovery restored the
  // registry sink-less. Pass {} to detach. Legal on a quarantined id — the
  // sink starts firing once the query re-joins.
  void attach_sink(QueryId id, MatchSink sink);

  const QueryRegistry& registry() const { return registry_; }
  // Current breaker state of one registered query; throws Error(kConfig)
  // for an unknown id.
  const QueryHealth& query_health(QueryId id) const;

  // One update batch through all five phases; throws Error(kConfig) when no
  // query is registered. Not thread-safe: one batch in flight at a time
  // (the engine parallelizes internally).
  ServerBatchReport process_batch(const EdgeBatch& batch);

  // Pipelined batch loop (docs/MULTI_QUERY.md, "Pipelined schedule"): batch
  // t+1's CPU-side front half — corruption screening and the frequency
  // estimation — is staged on the match pool while batch t's fan-out is in
  // flight, and the DCSR pack runs once that fan-out has returned. Each
  // batch commits exactly as in process_batch; right after, its buffered
  // sink callbacks are flushed and its report is surfaced through
  // `on_batch`, so a crash never exposes results of a batch recovery would
  // re-expose. Counts are bit-identical to calling process_batch per batch
  // (cache content never changes match counts). On error the failing batch
  // rolls back exactly as in process_batch, and every earlier batch has
  // already been surfaced.
  void process_stream(const std::vector<EdgeBatch>& batches,
                      const BatchReportSink& on_batch = {});

  // Full static embedding count of the current graph for one registered
  // query (diagnostic; fault injection suspended).
  std::uint64_t count_current_embeddings(QueryId id);

  // Degradation-ladder walk scale (docs/ROBUSTNESS.md, "Overload &
  // admission control"): the admission controller shrinks it below 1.0
  // under sustained overload, multiplying every per-query walk count in the
  // shared estimate. Count-neutral — cache content never changes match
  // counts. Clamped to (0, 1]. Call between batches (same thread contract
  // as process_batch).
  void set_walk_scale(double scale);
  double walk_scale() const { return walk_scale_; }

  // Durably logs a kShed audit record for a batch the admission layer
  // dropped, consuming the next WAL seq (so the committed stream's seq gap
  // is explained; see DurabilityManager::log_shed). Returns the seq, or 0
  // when durability is off. Engine-thread only, between batches.
  std::uint64_t log_shed_batch(const std::string& payload);

  const DynamicGraph& graph() const { return graph_; }
  gpusim::Device& device() { return device_; }
  const MultiQueryOptions& options() const { return options_; }
  std::uint64_t effective_cache_budget() const { return budget_.effective(); }
  std::uint32_t degradation_level() const { return budget_.level(); }
  const durable::DurableCounters& cumulative() const { return cumulative_; }
  const RecoveredState& recovery_info() const { return recovery_info_; }
  const std::string& registry_path() const { return registry_path_; }

 private:
  // Everything one standing query owns: its own executor (so matches fan
  // out without sharing a pool), estimator, RNG stream, metric scope, and
  // optional sink. Breaker bookkeeping that is deliberately NOT durable
  // lives here too: the consecutive-failure streak and the cooldown
  // progress reset on restart (the conservative direction — a restarted
  // engine re-earns a trip).
  struct QueryState {
    QueryId id = 0;
    double weight = 1.0;
    std::unique_ptr<gpusim::SimtExecutor> executor;
    std::unique_ptr<MatchEngine> engine;
    std::unique_ptr<FrequencyEstimator> estimator;
    std::unique_ptr<UnifiedMemoryPolicy> um_policy;  // kUnifiedMemory only
    std::unique_ptr<PipelineMetrics> metrics;        // "q<id>." scope
    Rng rng;
    MatchSink sink;
    std::uint64_t consecutive_failures = 0;
    std::uint64_t cooldown_remaining = 0;
  };

  // What phase 4 does with each query on this batch.
  enum class MatchRole : std::uint8_t {
    kMatch,  // healthy participant (or replay participant)
    kProbe,  // quarantined, cooldown elapsed: half-open probe
    kSkip,   // quarantined (cooldown pending) or replay non-participant
  };

  // Terminal outcome of one query's phase-4 ladder.
  struct MatchOutcome {
    std::exception_ptr error;        // null on success
    bool ladder_exhausted = false;   // error after a full retryable ladder
  };

  // Per-batch pipelined-schedule context threaded through the batch body by
  // process_stream; null means the serial process_batch semantics. Defined
  // in the .cpp (holds the staged front and the deferred sink buffers).
  struct PipelineCtx;

  std::unique_ptr<QueryState> make_state(const RegisteredQuery& entry);
  QueryState* state_for(QueryId id);
  // The engine's position on the batch stream: the last committed WAL seq,
  // or the committed-batch ordinal when durability is off.
  std::uint64_t current_position() const;
  // Recomputes the breaker gauges (quarantined count, summed debt).
  void refresh_breaker_gauges() const;
  // Writes the registry image: per-query health, counters and positions,
  // and the aggregate anchor at the current counters. Throws on failure
  // (the in-memory mutation is rolled back by the caller). No snapshot is
  // needed: recovery replays batches at or below the anchor graph-only, so
  // a removed query's past contributions stay counted, and a query's
  // position keeps earlier batches from replaying into it.
  void persist_registry();
  // Post-commit image rewrite: persist_registry, best-effort. Swallows
  // non-crash failures with a warning and returns false — correctness never
  // depends on image freshness (recovery replays from the last good image),
  // but a snapshot must NOT be written after a failed image write (the
  // image's per-query anchor would fall behind the snapshot's graph).
  // CrashError escapes.
  bool write_registry_image();
  // Any quarantined query still owed an exact (non-overflowed) catch-up —
  // while true, snapshot compaction is deferred so the WAL keeps the debt.
  bool any_exact_catchup_debt() const;
  // The one due-check of step 4, on both schedules: a snapshot is due when
  // snapshot_interval commits have landed. A due snapshot that catch-up
  // debt defers is counted (server.catchup.deferred_snapshots) and reported
  // as not due.
  bool checkpoint_due();
  // The one snapshot step: rewrites the registry image, then takes the
  // interval snapshot and compacts the WAL.
  void checkpoint();
  // Phase 2 alone: the one cache step over the CURRENT graph, with the
  // kMatch queries' weighted walks. Pure reads plus per-query estimator/RNG
  // state, so the pipelined schedule may run it on a pool thread while
  // matches are in flight.
  CacheOrder shared_cache_order(const EdgeBatch& batch,
                                const std::vector<MatchRole>& roles);
  // Phases 1-3 (one transactional attempt). `drop_cache` skips estimate +
  // pack: the terminal degradation of the shared ladder. Only queries whose
  // role is kMatch contribute to (and pay for) the shared estimate. A
  // non-null `staged` order is used instead of re-estimating.
  void run_shared_attempt(const EdgeBatch& batch, bool drop_cache,
                          const std::vector<MatchRole>& roles,
                          BatchReport& shared,
                          const CacheOrder* staged = nullptr);
  // One phase-4 attempt for one query (no retry logic). Probes the
  // match.query fault site keyed by the QueryId, then matches and enforces
  // breaker.match_deadline_ms post-hoc.
  void match_attempt(QueryState& qs, const EdgeBatch& batch, bool use_cpu,
                     const MatchSink* sink, BatchReport& qr);
  // Phase-4 fan-out: runs every kMatch/kProbe query through its retry
  // ladder on the match pool. Backoff never holds a pool slot — a retrying
  // query parks in the shared task queue with a ready-at deadline while
  // other queries use the worker (the head-of-line fix).
  // `staging` (pipelined schedule) is the next batch's CPU front half: the
  // first free worker claims and runs it alongside the match tasks (inline
  // when there are no tasks). `sink_override`, when non-null, substitutes
  // per-query sinks (the deferred-delivery buffers).
  void run_match_fanout(const EdgeBatch& batch,
                        const std::vector<MatchRole>& roles,
                        ServerBatchReport& out,
                        std::vector<MatchOutcome>& outcomes,
                        const std::function<void()>& staging = {},
                        const std::vector<MatchSink>* sink_override = nullptr);
  // Exact catch-up for a re-joining query: shadow graph from the latest
  // snapshot (or the initial graph), apply batches up to the frozen
  // position, then apply+match (position, cumulative_.last_seq] with sink
  // delivery. Returns false when the WAL no longer covers the debt (caller
  // falls back to re-baseline). Fault injection suspended throughout.
  // `sink` (may be null) receives the replayed embeddings — the query's own
  // sink on the serial path, the deferred buffer on the pipelined one.
  bool replay_missed_batches(QueryState& qs, const QueryHealth& health,
                             QueryCounters* delta, const MatchSink* sink);

  // The whole batch body shared by process_batch (ctx == nullptr) and
  // process_stream (ctx set: staged ingestion/estimate consumed, the next
  // batch's front half staged, and sinks buffered).
  ServerBatchReport process_batch_inner(const EdgeBatch& batch,
                                        PipelineCtx* ctx);

  MultiQueryOptions options_;
  DynamicGraph graph_;
  gpusim::Device device_;
  DcsrCache cache_;
  FaultInjector* faults_ = nullptr;
  DurabilityManager durability_;
  PipelineMetrics metrics_;  // shared-phase scope
  QueryRegistry registry_;
  std::string registry_path_;  // empty when durability is off
  std::vector<std::unique_ptr<QueryState>> states_;  // registration order
  ThreadPool match_pool_;
  util::ParkingLot parker_;  // interruptible shared-ladder backoff
  Rng seed_root_;  // split per QueryId for deterministic per-query streams
  durable::DurableCounters cumulative_;
  RecoveredState recovery_info_;
  // Pristine copy of the construction-time graph: the shadow-replay base
  // when no snapshot has been written yet. Kept only under durability.
  CsrGraph initial_;
  bool replaying_ = false;
  // Recovery replay position: seq of the batch being replayed, and whether
  // it is at or below the aggregate anchor (graph-only: update + reorg, no
  // matching, no counter advance).
  std::uint64_t replay_seq_ = 0;
  bool replay_graph_only_ = false;
  BudgetLadder budget_{options_.cache_budget_bytes, options_.recovery};
  // Overload degradation: multiplies every per-query walk count in the
  // shared estimate (1.0 = no degradation; see set_walk_scale).
  double walk_scale_ = 1.0;
};

}  // namespace gcsm::server
