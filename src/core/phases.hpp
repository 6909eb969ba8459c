// The five GCSM pipeline phases (paper Fig. 3) as reusable building blocks,
// plus the per-engine metric scope they report into.
//
// core/pipeline.hpp composes these into the classic one-query Pipeline; the
// multi-query serving engine (src/server/) composes the same pieces with a
// different schedule — one shared update/estimate/pack per batch, then the
// match phase fanned out across registered queries — and the sharded engine
// (src/shard/) runs them once per shard. Keeping the phase bodies here
// means the schedulers cannot drift apart semantically.
//
// PipelineMetrics solves the process-global metric aliasing problem: the
// original implementation resolved metric names through function-local
// statics, so two engines in one process interleaved into the same series.
// Each engine now owns a PipelineMetrics whose names are resolved once at
// construction from an optional prefix — "" preserves the historical
// single-pipeline names ("pipeline.match_ms"), while a multi-query engine
// scopes each query ("q3.pipeline.match_ms").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/dcsr_cache.hpp"
#include "core/frequency_estimator.hpp"
#include "core/gpu_engine.hpp"
#include "gpusim/device.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/update_stream.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace gcsm {

enum class EngineKind {
  kGcsm,           // frequency-estimated cache + zero-copy fallback
  kZeroCopy,       // baseline ZP: everything over PCIe in cache lines
  kUnifiedMemory,  // baseline UM: page-granular unified memory
  kNaiveDegree,    // baseline Naive: degree-ordered cache
  kVsgm,           // baseline VSGM: k-hop DMA precopy
  kCpu,            // CPU baseline: host threads, no device
};

const char* engine_kind_name(EngineKind kind);

// True for the kinds that pack a DCSR cache every batch (GCSM, Naive,
// VSGM); the others read every list from host memory.
bool uses_cache(EngineKind kind);

// The access policy that serves `kind`'s match phase over `graph`, reading
// `cache` for the kinds that use one. UM's policy owns a page cache, so an
// engine that keeps it warm across batches builds it once and reuses it.
std::unique_ptr<AccessPolicy> make_access_policy(EngineKind kind,
                                                 const DynamicGraph& graph,
                                                 const DcsrCache& cache,
                                                 const gpusim::SimParams& sim);

// Knobs of the transactional retry / degradation ladder. The defaults favor
// forward progress: a handful of device retries, then a CPU re-run.
struct RecoveryOptions {
  // Attempts on the configured engine before escalating (>= 1; the first
  // run counts as one attempt).
  int max_attempts = 3;
  // Attempts granted to the CPU fallback once escalated.
  int max_cpu_attempts = 4;
  // Escalate to the CPU engine when device attempts are exhausted. With
  // this off, the last error is rethrown instead.
  bool cpu_fallback = true;
  // Exponential backoff between attempts; 0 disables sleeping (tests).
  double backoff_initial_ms = 1.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 50.0;
  // Device-OOM degradation: each OOM halves the effective cache budget,
  // never below this floor; once at the floor, OOM escalates like an
  // exhausted retry. The floor never raises a smaller configured budget.
  std::uint64_t min_cache_budget_bytes = 64ull << 10;
  // After this many consecutive clean device batches, the budget doubles
  // back toward the configured value (one step at a time).
  int heal_after_clean_batches = 8;
  // Screen incoming batches and quarantine malformed records instead of
  // letting apply_batch throw on them.
  bool sanitize_batches = true;
  // Watchdog deadline for hung kernels (forwarded to the executor).
  double watchdog_timeout_ms = 25.0;
};

struct BatchReport {
  MatchStats stats;
  gpusim::Traffic traffic;

  // Wall-clock phase times (milliseconds).
  double wall_update_ms = 0.0;
  double wall_estimate_ms = 0.0;  // Step 2 (FE in Table II)
  double wall_pack_ms = 0.0;      // Step 3 (DC in Table II)
  double wall_match_ms = 0.0;     // Step 4
  double wall_reorg_ms = 0.0;     // Step 5 (Table III)

  // Simulated phase times (seconds) from the cost model; the matching phase
  // is split as in Fig. 13's breakdown.
  double sim_estimate_s = 0.0;
  double sim_pack_s = 0.0;  // DMA of the DCSR blob
  double sim_match_s = 0.0;
  double sim_reorg_s = 0.0;

  double sim_total_s() const {
    return sim_estimate_s + sim_pack_s + sim_match_s + sim_reorg_s;
  }
  double wall_total_ms() const {
    return wall_update_ms + wall_estimate_ms + wall_pack_ms + wall_match_ms +
           wall_reorg_ms;
  }

  // Cache diagnostics.
  std::uint64_t cached_vertices = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t walks = 0;

  // Robustness diagnostics (phase times and traffic reflect the attempt
  // that succeeded; these record what it took to get there).
  std::uint32_t retries = 0;            // recovery attempts beyond the first
  std::uint32_t degradation_level = 0;  // budget halvings in effect
  std::uint64_t effective_cache_budget = 0;  // budget used by this batch
  bool cpu_fallback = false;            // batch completed on the CPU engine
  double backoff_ms = 0.0;              // total backoff slept for this batch
  std::uint64_t faults_observed = 0;    // injector fires during this batch
  QuarantineReport quarantine;          // malformed records screened out
  std::uint64_t wal_seq = 0;            // WAL seq it committed under (0 = none)

  double cache_hit_rate() const {
    const auto total = traffic.cache_hits + traffic.cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(traffic.cache_hits) /
                            static_cast<double>(total);
  }
};

// One engine instance's metric handles and trace-span names, resolved once
// from `prefix` against the process-wide registry. Copy-free references stay
// valid for the registry's lifetime; the span-name strings live here because
// trace::Span keeps the char* until the span closes.
class PipelineMetrics {
 public:
  explicit PipelineMetrics(std::string prefix = "");

  const std::string& prefix() const { return prefix_; }

  const char* span_batch() const { return span_batch_.c_str(); }
  const char* span_update() const { return span_update_.c_str(); }
  const char* span_estimate() const { return span_estimate_.c_str(); }
  const char* span_pack() const { return span_pack_.c_str(); }
  const char* span_match() const { return span_match_.c_str(); }
  const char* span_reorg() const { return span_reorg_.c_str(); }

  // Estimator activity for one estimate() call.
  void note_estimate(const EstimateResult& est) const;
  // Device-OOM degradation ladder took one step down.
  void note_degradation() const;
  // Folds a finished batch into the registry (per-batch granularity so the
  // fetch hot path stays untouched).
  void record_batch(const BatchReport& report) const;

 private:
  std::string prefix_;
  std::string span_batch_;
  std::string span_update_;
  std::string span_estimate_;
  std::string span_pack_;
  std::string span_match_;
  std::string span_reorg_;

  metrics::Counter& batches_;
  metrics::Counter& retries_;
  metrics::Counter& fallbacks_;
  metrics::Counter& degradations_;
  metrics::Counter& quarantined_;
  metrics::Counter& faults_;
  metrics::Counter& cache_hits_;
  metrics::Counter& cache_misses_;
  metrics::Counter& zero_copy_bytes_;
  metrics::Counter& compute_ops_;
  metrics::Counter& host_ops_;
  metrics::Counter& est_walks_;
  metrics::Counter& est_nodes_;
  metrics::Counter& est_ops_;
  metrics::Gauge& budget_;
  metrics::Gauge& level_;
  metrics::Gauge& cached_;
  metrics::Histogram& wall_;
  metrics::Histogram& sim_;
  metrics::Histogram& update_ms_;
  metrics::Histogram& estimate_ms_;
  metrics::Histogram& pack_ms_;
  metrics::Histogram& match_ms_;
  metrics::Histogram& reorg_ms_;
  metrics::Histogram& backoff_ms_;
};

// Step 1: dynamic graph maintenance on the CPU. Fills wall_update_ms.
void phase_update(DynamicGraph& graph, const EdgeBatch& batch,
                  bool check_invariants, const PipelineMetrics& pm,
                  BatchReport& report);

// `sim` with the unified-memory resident set clamped to the device buffer
// the cached kinds get, `cache_budget_bytes` (the paper's setting: the graph
// far exceeds what the device can hold, so UM thrashes pages). Without the
// clamp the page cache would silently swallow a scaled-down graph whole.
gpusim::SimParams clamp_um_resident_set(gpusim::SimParams sim,
                                        std::uint64_t cache_budget_bytes);

// One query's share of GCSM's walk estimate: its estimator, the RNG stream
// its walks draw from, its weight in cache arbitration, and the metric
// scope its walks are noted in.
struct WalkContributor {
  const FrequencyEstimator* estimator = nullptr;
  Rng* rng = nullptr;
  double weight = 1.0;
  const PipelineMetrics* metrics = nullptr;
};

// One shard's part of step 2 (DESIGN.md §6). The shard caches only the
// vertices it owns: the router sends it fetches of no others. VSGM's search
// runs from the global batch over each vertex's complete list on its owner
// shard, the routing the sharded matcher's fetches use, so the shard caches
// its owned part of the k-hop set a single device would cache.
struct ShardScope {
  std::function<bool(VertexId)> owns;
  ListSource owner_lists;
  const EdgeBatch* global_batch = nullptr;
};

// What step 2 decided: the cache residency order, and what deciding cost.
struct CacheOrder {
  std::vector<VertexId> order;
  std::uint64_t walks = 0;
  double sim_estimate_s = 0.0;
  double wall_estimate_ms = 0.0;

  // Fills the report's step-2 fields: walks / sim_estimate_s /
  // wall_estimate_ms.
  void report_into(BatchReport& report) const {
    report.walks = walks;
    report.sim_estimate_s = sim_estimate_s;
    report.wall_estimate_ms = wall_estimate_ms;
  }
};

// Step 2, run once per device by every engine: choose the cache residency
// order for `kind`. GCSM runs each contributor's random-walk estimate on
// `graph` and `batch` (deterministic given the RNG streams; `walk_scale`
// scales every walk count; an empty batch takes no walks), sums the
// frequencies by weight and orders by the sum. Naive orders by degree.
// VSGM collects every vertex within `hops` hops of the batch. The other
// kinds cache nothing and get an empty order. A null `shard` is a single
// device, which serves every vertex.
CacheOrder phase_estimate(EngineKind kind, const DynamicGraph& graph,
                          const EdgeBatch& batch,
                          const std::vector<WalkContributor>& walkers,
                          std::uint32_t hops, double walk_scale,
                          const ShardScope* shard,
                          const gpusim::SimParams& sim,
                          const PipelineMetrics& pm);

// Step 3: pack `order`'s lists as DCSR under `effective_budget` and DMA the
// blob to the device, charging `counters`. VSGM semantically requires the
// full k-hop data resident, so its bound is the configured (undegraded)
// budget and overflow throws DeviceOomError. No-op for kinds that do not
// cache. Fills wall_pack_ms / sim_pack_s / cached_vertices / cache_bytes.
void phase_pack(EngineKind kind, DcsrCache& cache, const DynamicGraph& graph,
                const std::vector<VertexId>& order,
                std::uint64_t effective_budget,
                std::uint64_t configured_budget, gpusim::Device& device,
                gpusim::TrafficCounters& counters, bool check_invariants,
                const gpusim::SimParams& sim, const PipelineMetrics& pm,
                BatchReport& report);

// Step 4: incremental matching through `policy`, charging `counters`. Fills
// stats / wall_match_ms / sim_match_s, attributing to the kernel everything
// `counters` gained during the call except DMA already present beforehand
// (the pack blob's transfer).
void phase_match(EngineKind kind, MatchEngine& engine,
                 const DynamicGraph& graph, const EdgeBatch& batch,
                 AccessPolicy& policy, gpusim::TrafficCounters& counters,
                 const MatchSink* sink, const gpusim::SimParams& sim,
                 const PipelineMetrics& pm, BatchReport& report);

// Step 5: reorganize the touched neighbor lists on the CPU. Fills
// wall_reorg_ms / sim_reorg_s.
void phase_reorg(DynamicGraph& graph, bool check_invariants,
                 const gpusim::SimParams& sim, const PipelineMetrics& pm,
                 BatchReport& report);

}  // namespace gcsm
