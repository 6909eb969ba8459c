// Multi-device sharded matching engine (DESIGN.md, "Multi-device
// sharding").
//
// The single-device engines bind one DynamicGraph to one simulated device.
// This engine partitions the data graph across N shards (shard/
// sharded_graph.hpp) — each with its own gpusim::Device, DcsrCache, and
// slice of the cache budget — and runs the five GCSM phases per shard:
//
//   1. update   — the sanitized batch splits by endpoint ownership; each
//                 shard applies its sub-batch (cut records to both owners)
//   2. estimate — the one cache step (core/phases.hpp) per shard, over the
//                 vertices it owns (the router sends it fetches of no
//                 others): GCSM's walks run on the shard's graph and
//                 sub-batch; VSGM caches the owned part of the global k-hop
//                 set
//   3. pack     — per-shard DCSR build under budget/N, each shard owning
//                 its own OOM degradation ladder (halve on OOM, heal on
//                 clean streaks) — one hot shard degrades alone
//   4. match    — ShardedMatcher routes each delta-join work item to the
//                 shard owning its ΔE anchor and stitches cross-shard
//                 partials at branch levels in Pregel-style supersteps
//   5. reorg    — per shard
//
// Exactness: match counts are bit-identical to the single-device engines
// for every EngineKind, shard count, and partition strategy — the
// ShardedGraph completeness invariant makes every owner-routed view
// byte-identical to the single-device view, and anchor routing enumerates
// each work item exactly once (tests/shard_test.cpp).
//
// Recovery runs the one transactional ladder (core/recovery.hpp): corruption
// screening, per-shard snapshots before the attempt, rollback of ALL shards
// on failure, per-batch retries with backoff and CPU escalation, and one
// OOM budget ladder per shard. Durability logs the sanitized GLOBAL batch
// once and commits ONE marker per batch carrying the aggregated per-shard
// counters. The engine never snapshots (snapshot_interval has no effect and
// the WAL is never compacted) and cannot replay: when recover_on_start finds
// committed batches or a snapshot, the constructor throws Error(kRecovery).
// Recover such a wal_dir through a single-device engine (counts are
// identical by construction), or start with recover_on_start off.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cpu_engine.hpp"
#include "core/durability.hpp"
#include "core/frequency_estimator.hpp"
#include "core/phases.hpp"
#include "core/recovery.hpp"
#include "graph/csr_graph.hpp"
#include "shard/sharded_graph.hpp"
#include "shard/sharded_matcher.hpp"
#include "util/check.hpp"
#include "util/parking.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gcsm::shard {

using QueryId = std::uint32_t;

struct ShardedEngineOptions {
  std::size_t num_shards = 2;
  PartitionStrategy partition = PartitionStrategy::kRange;
  EngineKind kind = EngineKind::kGcsm;
  gpusim::SimParams sim;
  // TOTAL cache budget; each shard's device gets an equal slice.
  std::uint64_t cache_budget_bytes = 256ull << 20;
  EstimatorOptions estimator;
  std::size_t workers = 0;  // shard-task pool threads (0 = num_shards)
  std::uint64_t seed = 7;
  bool check_invariants = GCSM_CHECKS_ENABLED != 0;
  RecoveryOptions recovery;
  DurabilityOptions durability;
  FaultInjector* fault_injector = nullptr;
  // Aggregate metric scope; per-shard series live under
  // metric_prefix + "shard<i>." (e.g. "shard0.pipeline.match_ms").
  std::string metric_prefix;
};

struct ShardQueryReport {
  QueryId id = 0;
  MatchStats stats;
  StitchStats stitch;
};

struct ShardedBatchReport {
  // Aggregate attribution: stats summed across queries, traffic summed
  // across shards, simulated phase times = max over shards (the devices run
  // in parallel), walls measured around the serial host loops.
  BatchReport shared;
  // Per-shard phase attribution (index = shard id), recorded under the
  // "shard<i>." metric scope.
  std::vector<BatchReport> shards;
  // Registration order.
  std::vector<ShardQueryReport> queries;
  // Stitch accounting summed across queries, plus the partition state.
  StitchStats stitch;
  std::uint64_t cut_edges = 0;
  double imbalance = 1.0;
};

class ShardedMatchEngine {
 public:
  ShardedMatchEngine(const CsrGraph& initial, ShardedEngineOptions options);

  // Registers a standing query (1-based id, the match.query fault key).
  // Register every query before the first batch.
  QueryId register_query(QueryGraph query, MatchSink sink = {});

  // One update batch through all five phases on every shard; throws
  // Error(kConfig) when no query is registered. Not thread-safe.
  ShardedBatchReport process_batch(const EdgeBatch& batch);

  // Full static embedding count for one registered query (diagnostic;
  // fault injection suspended).
  std::uint64_t count_current_embeddings(QueryId id);

  const ShardedGraph& sharded_graph() const { return sg_; }
  const ShardedEngineOptions& options() const { return options_; }
  std::uint64_t effective_cache_budget(std::size_t s) const {
    return budgets_[s].effective();
  }
  std::uint32_t degradation_level(std::size_t s) const {
    return budgets_[s].level();
  }
  const durable::DurableCounters& cumulative() const { return cumulative_; }

 private:
  struct QueryState {
    QueryId id = 0;
    std::unique_ptr<ShardedMatcher> matcher;
    std::unique_ptr<FrequencyEstimator> estimator;
    Rng rng;
    MatchSink sink;
  };

  // Phases 1-5 for one transactional attempt. Fills the per-shard reports,
  // the per-query stats, and the aggregate. `oom_shard` receives the shard
  // whose pack OOM'd when DeviceOomError escapes.
  void run_attempt(const EdgeBatch& clean,
                   const std::vector<EdgeBatch>& subs, bool use_cpu,
                   ShardedBatchReport& out, std::size_t& oom_shard);

  ShardedEngineOptions options_;
  ShardedGraph sg_;
  FaultInjector* faults_ = nullptr;
  DurabilityManager durability_;
  PipelineMetrics metrics_;                 // aggregate scope
  std::vector<PipelineMetrics> shard_metrics_;  // "shard<i>." scopes
  std::vector<std::unique_ptr<QueryState>> states_;
  ThreadPool pool_;
  util::ParkingLot parker_;
  durable::DurableCounters cumulative_;
  std::vector<BudgetLadder> budgets_;  // one per shard, over its budget slice
};

}  // namespace gcsm::shard
