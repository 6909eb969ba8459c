// The end-to-end GCSM pipeline (paper Fig. 3) and every baseline engine
// behind one interface.
//
// For each batch ΔE_k the pipeline runs the paper's five steps (the phase
// bodies live in core/phases.hpp, shared with the multi-query serving engine
// in src/server/):
//   1. append ΔE_k to the dynamic graph on the CPU;
//   2. random walks estimate per-vertex access frequency (GCSM only);
//   3. the frequent vertices' lists are DCSR-packed and DMA'd to the device
//      (GCSM / Naive / VSGM);
//   4. the incremental matching kernel runs on the (simulated) device — or
//      on host threads for the CPU baseline;
//   5. the touched neighbor lists are reorganized on the CPU.
//
// Engine kinds map one-to-one to the paper's comparison systems.
//
// process_batch is TRANSACTIONAL: before touching the graph it snapshots the
// state the batch can modify, and any failure (device OOM, DMA error, kernel
// launch refusal, watchdog timeout, a mid-apply crash) rolls the graph back
// and re-runs the batch. Recovery escalates along the one recovery ladder
// (core/recovery.hpp):
//   transient fault  -> rollback + exponential-backoff retry (bounded);
//   device OOM       -> halve the effective cache budget and retry (the
//                       budget heals back after enough clean batches);
//   retries exhausted / budget at floor -> re-run the batch on the CPU
//                       engine (kCpu), which needs no device at all.
// Only when even the CPU attempts fail does the error escape to the caller.
// See docs/ROBUSTNESS.md for the full taxonomy and recovery matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

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
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/parking.hpp"
#include "util/rng.hpp"

namespace gcsm {

struct PipelineOptions {
  EngineKind kind = EngineKind::kGcsm;
  gpusim::SimParams sim;
  // GPU cache budget (the paper's 14 GB buffer, scaled down by default).
  std::uint64_t cache_budget_bytes = 256ull << 20;
  EstimatorOptions estimator;
  std::size_t workers = 0;  // simulated blocks / host threads (0 = auto)
  std::size_t grain = 2;
  gpusim::Schedule schedule = gpusim::Schedule::kWorkStealing;
  std::uint64_t seed = 7;
  // Validate DynamicGraph and DcsrCache at every batch boundary (throws
  // CheckFailure on corruption). Defaults on in GCSM_ENABLE_CHECKS builds;
  // can be toggled per pipeline regardless of the build flavor.
  bool check_invariants = GCSM_CHECKS_ENABLED != 0;
  RecoveryOptions recovery;
  // Crash durability: WAL + snapshots + recover-on-start (core/durability.hpp
  // and docs/ROBUSTNESS.md). Disabled while wal_dir is empty.
  DurabilityOptions durability;
  // Arms every fault site in the pipeline's components (device allocation
  // and DMA, kernel launch/hang, cache build, batch apply, batch
  // corruption). Non-owning; must outlive the pipeline. nullptr = disarmed.
  FaultInjector* fault_injector = nullptr;
  // Metric/trace scope for this engine instance (e.g. "q3." yields
  // "q3.pipeline.match_ms"). Empty keeps the historical process-wide names,
  // so single-pipeline deployments are unchanged. Two engines sharing a
  // prefix interleave into the same series, exactly like before.
  std::string metric_prefix;
};

class Pipeline {
 public:
  Pipeline(const CsrGraph& initial, QueryGraph query, PipelineOptions options);

  BatchReport process_batch(const EdgeBatch& batch,
                            const MatchSink* sink = nullptr);

  const DynamicGraph& graph() const { return graph_; }
  DynamicGraph& mutable_graph() { return graph_; }
  const QueryGraph& query() const { return engine_.query(); }
  const PipelineOptions& options() const { return options_; }
  gpusim::Device& device() { return device_; }

  // Embedding count of the current graph by full (static) matching through
  // this pipeline's policy — used for initialization and validation. Fault
  // injection is suspended for the duration (it is a diagnostic, not a
  // batch).
  std::uint64_t count_current_embeddings();

  // The cache budget after degradation: cache_budget_bytes halved
  // degradation_level() times, floored at min_cache_budget_bytes (a smaller
  // cache_budget_bytes is used as configured).
  std::uint64_t effective_cache_budget() const { return budget_.effective(); }
  std::uint32_t degradation_level() const { return budget_.level(); }

  // Cumulative match totals across every committed batch (maintained with
  // or without durability). With durability on, exactly what the last WAL
  // commit marker recorded — a restarted client resumes submission from
  // cumulative().batches_committed.
  const durable::DurableCounters& cumulative() const { return cumulative_; }
  // What recover-on-start found (empty when durability is off or the start
  // was cold).
  const RecoveredState& recovery_info() const { return recovery_info_; }

 private:
  // One transactional attempt at the five steps. `use_cpu` re-runs the
  // batch on the CPU engine regardless of the configured kind.
  void run_attempt(const EdgeBatch& batch, const MatchSink* sink,
                   bool use_cpu, BatchReport& report);

  PipelineOptions options_;
  DynamicGraph graph_;
  gpusim::Device device_;
  gpusim::SimtExecutor executor_;
  MatchEngine engine_;
  FrequencyEstimator estimator_;
  DcsrCache cache_;
  std::unique_ptr<UnifiedMemoryPolicy> um_policy_;  // persistent page cache
  Rng rng_;
  FaultInjector* faults_ = nullptr;
  DurabilityManager durability_;
  PipelineMetrics metrics_;
  durable::DurableCounters cumulative_;
  RecoveredState recovery_info_;
  bool replaying_ = false;  // recovery replay: no sink, no re-logging
  BudgetLadder budget_{options_.cache_budget_bytes, options_.recovery};
  util::ParkingLot parker_;  // interruptible retry-ladder backoff
};

}  // namespace gcsm
