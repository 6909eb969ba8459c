#include "core/pipeline.hpp"

#include "core/recovery.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace gcsm {

Pipeline::Pipeline(const CsrGraph& initial, QueryGraph query,
                   PipelineOptions options)
    : options_(options),
      graph_(initial),
      device_(options.sim),
      executor_(options.workers, options.schedule),
      engine_(std::move(query), executor_, options.grain),
      estimator_(engine_.query(), options.estimator),
      rng_(options.seed),
      faults_(options.fault_injector),
      durability_(options.durability, options.fault_injector),
      metrics_(options.metric_prefix) {
  device_.set_fault_injector(faults_);
  executor_.set_fault_injector(faults_);
  executor_.set_watchdog_timeout_ms(options_.recovery.watchdog_timeout_ms);
  graph_.set_fault_injector(faults_);
  if (options_.kind == EngineKind::kUnifiedMemory) {
    um_policy_ = std::make_unique<UnifiedMemoryPolicy>(
        graph_,
        clamp_um_resident_set(options_.sim, options_.cache_budget_bytes));
  }

  if (options_.durability.enabled()) {
    recovery_info_ = durability_.recover();
    if (recovery_info_.snapshot_loaded) {
      graph_.restore(recovery_info_.graph);
      if (options_.check_invariants) graph_.validate();
      cumulative_ = recovery_info_.counters;
    }
    if (!recovery_info_.replay.empty()) {
      // Deterministic replay of committed-but-unsnapshotted batches. Fault
      // injection is suspended (the batches already survived production once)
      // and `replaying_` keeps process_batch from re-logging them.
      const FaultSuspendGuard suspend(faults_);
      replaying_ = true;
      try {
        for (const auto& [seq, batch] : recovery_info_.replay) {
          process_batch(batch);
          cumulative_.last_seq = seq;
        }
      } catch (...) {
        replaying_ = false;
        throw;
      }
      replaying_ = false;
    }
    check_replay(recovery_info_, cumulative_);
  }
}

void Pipeline::run_attempt(const EdgeBatch& batch, const MatchSink* sink,
                           bool use_cpu, BatchReport& report) {
  const EngineKind kind = use_cpu ? EngineKind::kCpu : options_.kind;
  // Kernel fault sites model device failures: they stay armed for device
  // attempts and are disarmed on the CPU path (which shares the executor as
  // a plain thread pool), so the fallback is genuinely more reliable. The
  // graph.apply site stays armed either way.
  executor_.set_fault_injector(use_cpu ? nullptr : faults_);

  gpusim::TrafficCounters& counters = device_.counters();
  counters.reset();
  const gpusim::SimParams& sim = options_.sim;

  // Step 1: dynamic graph maintenance on the CPU.
  phase_update(graph_, batch, options_.check_invariants, metrics_, report);

  // Step 2: frequency estimation (GCSM; degree / k-hop for the baselines).
  const CacheOrder cache_order = phase_estimate(
      kind, graph_, batch, {{&estimator_, &rng_, 1.0, &metrics_}},
      engine_.query().diameter(), 1.0, nullptr, sim, metrics_);
  cache_order.report_into(report);

  // Step 3: pack the selected lists as DCSR and DMA to the device.
  phase_pack(kind, cache_, graph_, cache_order.order,
             effective_cache_budget(), options_.cache_budget_bytes, device_,
             counters, options_.check_invariants, sim, metrics_, report);

  // Step 4: incremental matching. UM keeps its page cache across batches.
  const std::unique_ptr<AccessPolicy> fresh =
      kind == EngineKind::kUnifiedMemory
          ? nullptr
          : make_access_policy(kind, graph_, cache_, sim);
  phase_match(kind, engine_, graph_, batch, fresh ? *fresh : *um_policy_,
              counters, sink, sim, metrics_, report);

  // Step 5: reorganize the touched lists on the CPU.
  phase_reorg(graph_, options_.check_invariants, sim, metrics_, report);

  report.traffic = counters.snapshot();
}

BatchReport Pipeline::process_batch(const EdgeBatch& batch,
                                    const MatchSink* sink) {
  const trace::Span batch_span(metrics_.span_batch());
  BatchReport report;
  const std::uint64_t faults_before =
      faults_ != nullptr ? faults_->fired_count() : 0;

  // Ingestion: corrupt (fault site), then screen, on a copy: the caller's
  // batch is never mutated.
  const EdgeBatch use = ingest_batch(
      batch, faults_, options_.recovery,
      [this](const EdgeBatch& b, QuarantineReport& q) {
        return sanitize_batch(graph_, b, q);
      },
      report.quarantine);

  // The transaction: everything the batch can touch, restorable even from a
  // half-applied state.
  const DynamicGraph::Snapshot snap = graph_.snapshot_for(use);
  auto rollback = [&] {
    graph_.restore(snap);
    cache_.clear();
    if (options_.check_invariants) graph_.validate();
  };

  // Escalation re-runs the batch on the CPU engine.
  RetryLadder ladder(options_.recovery, options_.kind == EngineKind::kCpu);
  run_transaction(
      ladder, options_.kind, report, parker_,
      [&](bool use_cpu) { run_attempt(use, sink, use_cpu, report); },
      rollback,
      [this] { return budget_.degrade(metrics_); });
  report.cpu_fallback = ladder.fell_back();
  if (!ladder.escalated()) budget_.heal(report.retries == 0);

  report.degradation_level = budget_.level();
  report.effective_cache_budget = budget_.effective();
  if (faults_ != nullptr) {
    report.faults_observed = faults_->fired_count() - faults_before;
  }

  // Commit (step 2): the sanitized batch and the cumulative totals
  // including it go into one commit unit, so recovery replays exactly the
  // bytes that ran; only after it is durable does the in-memory cumulative
  // state advance. Recovery replay itself is not re-logged.
  const bool durable = options_.durability.enabled() && !replaying_;
  report.wal_seq = commit_transaction(durability_, cumulative_, report.stats,
                                      durable ? &use : nullptr, rollback);
  metrics_.record_batch(report);
  // Snapshot + WAL compaction (step 3) runs after the commit, so a crash
  // inside it can only lose the snapshot, never the batch.
  if (durable) durability_.maybe_snapshot(graph_, cumulative_);
  return report;
}

std::uint64_t Pipeline::count_current_embeddings() {
  // A diagnostic pass, not a batch: fault injection pauses so it cannot fail
  // or consume the injector's hit sequence.
  FaultSuspendGuard suspend(faults_);
  gpusim::TrafficCounters scratch;
  HostPolicy policy(graph_);
  const MatchStats stats = engine_.match_full(graph_, policy, scratch);
  return stats.positive;
}

}  // namespace gcsm
