#include "core/phases.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace gcsm {

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kGcsm:
      return "GCSM";
    case EngineKind::kZeroCopy:
      return "ZP";
    case EngineKind::kUnifiedMemory:
      return "UM";
    case EngineKind::kNaiveDegree:
      return "Naive";
    case EngineKind::kVsgm:
      return "VSGM";
    case EngineKind::kCpu:
      return "CPU";
  }
  return "?";
}

bool uses_cache(EngineKind kind) {
  return kind == EngineKind::kGcsm || kind == EngineKind::kNaiveDegree ||
         kind == EngineKind::kVsgm;
}

std::unique_ptr<AccessPolicy> make_access_policy(
    EngineKind kind, const DynamicGraph& graph, const DcsrCache& cache,
    const gpusim::SimParams& sim) {
  switch (kind) {
    case EngineKind::kCpu:
      return std::make_unique<HostPolicy>(graph);
    case EngineKind::kZeroCopy:
      return std::make_unique<ZeroCopyPolicy>(graph, sim);
    case EngineKind::kUnifiedMemory:
      return std::make_unique<UnifiedMemoryPolicy>(graph, sim);
    case EngineKind::kGcsm:
    case EngineKind::kNaiveDegree:
    case EngineKind::kVsgm:
      return std::make_unique<CachedPolicy>(graph, cache, sim);
  }
  GCSM_CHECK(false, "unknown engine kind");
}

PipelineMetrics::PipelineMetrics(std::string prefix)
    : prefix_(std::move(prefix)),
      span_batch_(prefix_ + "pipeline.batch"),
      span_update_(prefix_ + "pipeline.update"),
      span_estimate_(prefix_ + "pipeline.estimate"),
      span_pack_(prefix_ + "pipeline.pack"),
      span_match_(prefix_ + "pipeline.match"),
      span_reorg_(prefix_ + "pipeline.reorg"),
      batches_(metrics::Registry::global().counter(prefix_ +
                                                   metric::kPipelineBatches)),
      retries_(metrics::Registry::global().counter(prefix_ +
                                                   metric::kPipelineRetries)),
      fallbacks_(metrics::Registry::global().counter(
          prefix_ + metric::kPipelineCpuFallbacks)),
      degradations_(metrics::Registry::global().counter(
          prefix_ + metric::kPipelineDegradations)),
      quarantined_(metrics::Registry::global().counter(
          prefix_ + metric::kPipelineQuarantinedRecords)),
      faults_(metrics::Registry::global().counter(
          prefix_ + metric::kPipelineFaultsObserved)),
      cache_hits_(metrics::Registry::global().counter(prefix_ + metric::kCacheHits)),
      cache_misses_(metrics::Registry::global().counter(prefix_ +
                                                        metric::kCacheMisses)),
      zero_copy_bytes_(metrics::Registry::global().counter(
          prefix_ + metric::kCacheZeroCopyBytes)),
      compute_ops_(metrics::Registry::global().counter(
          prefix_ + metric::kKernelComputeOps)),
      host_ops_(metrics::Registry::global().counter(prefix_ + metric::kHostOps)),
      est_walks_(metrics::Registry::global().counter(prefix_ +
                                                     metric::kEstimatorWalks)),
      est_nodes_(metrics::Registry::global().counter(
          prefix_ + metric::kEstimatorNodesVisited)),
      est_ops_(metrics::Registry::global().counter(prefix_ + metric::kEstimatorOps)),
      budget_(metrics::Registry::global().gauge(
          prefix_ + metric::kPipelineEffectiveCacheBudgetBytes)),
      level_(metrics::Registry::global().gauge(
          prefix_ + metric::kPipelineDegradationLevel)),
      cached_(metrics::Registry::global().gauge(prefix_ +
                                                metric::kCacheCachedVertices)),
      wall_(metrics::Registry::global().histogram(
          prefix_ + metric::kPipelineBatchWallMs)),
      sim_(metrics::Registry::global().histogram(prefix_ +
                                                 metric::kPipelineBatchSimMs)),
      update_ms_(metrics::Registry::global().histogram(
          prefix_ + metric::kPipelineUpdateMs)),
      estimate_ms_(metrics::Registry::global().histogram(
          prefix_ + metric::kPipelineEstimateMs)),
      pack_ms_(metrics::Registry::global().histogram(
          prefix_ + metric::kPipelinePackMs)),
      match_ms_(metrics::Registry::global().histogram(
          prefix_ + metric::kPipelineMatchMs)),
      reorg_ms_(metrics::Registry::global().histogram(
          prefix_ + metric::kPipelineReorgMs)),
      backoff_ms_(metrics::Registry::global().histogram(
          prefix_ + metric::kPipelineBackoffMs)) {}

void PipelineMetrics::note_estimate(const EstimateResult& est) const {
  est_walks_.add(est.walks);
  est_nodes_.add(est.nodes_visited);
  est_ops_.add(est.ops);
}

void PipelineMetrics::note_degradation() const { degradations_.add(); }

void PipelineMetrics::record_batch(const BatchReport& report) const {
  batches_.add();
  retries_.add(report.retries);
  if (report.cpu_fallback) fallbacks_.add();
  quarantined_.add(report.quarantine.total());
  faults_.add(report.faults_observed);
  // Hot-path cache/kernel traffic is mirrored per batch from the traffic
  // counters — per-lookup metric updates would tax the fetch fast path.
  cache_hits_.add(report.traffic.cache_hits);
  cache_misses_.add(report.traffic.cache_misses);
  zero_copy_bytes_.add(report.traffic.zero_copy_bytes);
  compute_ops_.add(report.traffic.compute_ops);
  host_ops_.add(report.traffic.host_ops);
  budget_.set(static_cast<double>(report.effective_cache_budget));
  level_.set(static_cast<double>(report.degradation_level));
  cached_.set(static_cast<double>(report.cached_vertices));
  wall_.observe(report.wall_total_ms());
  sim_.observe(report.sim_total_s() * 1e3);
  update_ms_.observe(report.wall_update_ms);
  estimate_ms_.observe(report.wall_estimate_ms);
  pack_ms_.observe(report.wall_pack_ms);
  match_ms_.observe(report.wall_match_ms);
  reorg_ms_.observe(report.wall_reorg_ms);
  if (report.backoff_ms > 0.0) backoff_ms_.observe(report.backoff_ms);
}

void phase_update(DynamicGraph& graph, const EdgeBatch& batch,
                  bool check_invariants, const PipelineMetrics& pm,
                  BatchReport& report) {
  const Timer t;
  {
    const trace::Span span(pm.span_update());
    graph.apply_batch(batch);
  }
  report.wall_update_ms = t.millis();
  if (check_invariants) graph.validate();
}

gpusim::SimParams clamp_um_resident_set(gpusim::SimParams sim,
                                        std::uint64_t cache_budget_bytes) {
  sim.um_page_cache_bytes =
      std::min(sim.um_page_cache_bytes, cache_budget_bytes);
  return sim;
}

CacheOrder phase_estimate(EngineKind kind, const DynamicGraph& graph,
                          const EdgeBatch& batch,
                          const std::vector<WalkContributor>& walkers,
                          std::uint32_t hops, double walk_scale,
                          const ShardScope* shard,
                          const gpusim::SimParams& sim,
                          const PipelineMetrics& pm) {
  CacheOrder out;
  if (!uses_cache(kind)) return out;
  const trace::Span span(pm.span_estimate());
  const Timer t;
  const double host_ops_per_s =
      sim.host_ops_per_sec_per_thread * sim.host_threads;
  if (kind == EngineKind::kGcsm) {
    std::vector<double> combined(
        static_cast<std::size_t>(graph.num_vertices()), 0.0);
    std::uint64_t ops = 0;
    // An empty batch seeds no walk (a shard's share of a batch often is).
    const std::size_t contributors =
        batch.updates.empty() ? 0 : walkers.size();
    for (std::size_t i = 0; i < contributors; ++i) {
      const WalkContributor& w = walkers[i];
      const EstimateResult est =
          w.estimator->estimate(graph, batch, *w.rng, walk_scale);
      w.metrics->note_estimate(est);
      out.walks += est.walks;
      ops += est.ops;
      const std::size_t m = std::min(combined.size(), est.frequency.size());
      for (std::size_t v = 0; v < m; ++v) {
        combined[v] += w.weight * est.frequency[v];
      }
    }
    out.order = select_by_frequency(combined);
    out.sim_estimate_s = static_cast<double>(ops) / host_ops_per_s;
  } else if (kind == EngineKind::kNaiveDegree) {
    out.order = select_by_degree(graph);
    out.sim_estimate_s =
        static_cast<double>(graph.num_vertices()) / host_ops_per_s;
  } else {  // kVsgm
    out.order = shard == nullptr
                    ? khop_vertices(graph, batch, hops)
                    : khop_vertices(shard->owner_lists, graph.num_vertices(),
                                    *shard->global_batch, hops);
  }
  if (shard != nullptr) {
    std::erase_if(out.order, [&](VertexId v) { return !shard->owns(v); });
  }
  if (kind == EngineKind::kVsgm) {
    out.sim_estimate_s =
        static_cast<double>(total_list_bytes(graph, out.order)) /
        (sim.host_mem_bandwidth_gbps * 1e9);
  }
  out.wall_estimate_ms = t.millis();
  return out;
}

void phase_pack(EngineKind kind, DcsrCache& cache, const DynamicGraph& graph,
                const std::vector<VertexId>& order,
                std::uint64_t effective_budget,
                std::uint64_t configured_budget, gpusim::Device& device,
                gpusim::TrafficCounters& counters, bool check_invariants,
                const gpusim::SimParams& sim, const PipelineMetrics& pm,
                BatchReport& report) {
  if (!uses_cache(kind)) return;
  const trace::Span span(pm.span_pack());
  const Timer t;
  cache.clear();
  // VSGM semantically requires the full k-hop data on the device; a budget
  // overflow is a genuine device-OOM (the reason the paper shrinks VSGM's
  // batches). Degradation cannot help, so the configured (not the
  // effective) budget is the bound.
  if (kind == EngineKind::kVsgm) {
    const std::uint64_t need = total_list_bytes(graph, order);
    if (need > configured_budget) {
      throw gpusim::DeviceOomError(need, configured_budget);
    }
  }
  const gpusim::Traffic before = counters.snapshot();
  cache.build(graph, order, effective_budget, device, counters);
  if (check_invariants) cache.validate(&graph);
  const gpusim::Traffic after = counters.snapshot();
  // Simulated pack time: the DMA this build charged to `counters`.
  gpusim::Traffic dma = after;
  dma.dma_calls -= before.dma_calls;
  dma.dma_bytes -= before.dma_bytes;
  report.sim_pack_s = simulate_time(dma, sim).dma;
  report.cached_vertices = cache.num_cached();
  report.cache_bytes = cache.blob_bytes();
  report.wall_pack_ms = t.millis();
}

void phase_match(EngineKind kind, MatchEngine& engine,
                 const DynamicGraph& graph, const EdgeBatch& batch,
                 AccessPolicy& policy, gpusim::TrafficCounters& counters,
                 const MatchSink* sink, const gpusim::SimParams& sim,
                 const PipelineMetrics& pm, BatchReport& report) {
  const Timer t;
  const trace::Span span(pm.span_match());
  const gpusim::Traffic before = counters.snapshot();
  report.stats = engine.match_batch(graph, batch, policy, counters, sink);
  report.wall_match_ms = t.millis();
  const gpusim::Traffic after = counters.snapshot();
  // Kernel-phase simulated time: everything but the DMA already charged
  // before the call (the pack blob's transfer when counters are shared).
  gpusim::Traffic kernel = after;
  kernel.dma_calls -= before.dma_calls;
  kernel.dma_bytes -= before.dma_bytes;
  const gpusim::SimTime st = simulate_time(kernel, sim);
  report.sim_match_s =
      kind == EngineKind::kCpu ? st.host : st.kernel() + st.dma;
}

void phase_reorg(DynamicGraph& graph, bool check_invariants,
                 const gpusim::SimParams& sim, const PipelineMetrics& pm,
                 BatchReport& report) {
  const Timer t;
  DynamicGraph::ReorgStats reorg;
  {
    const trace::Span span(pm.span_reorg());
    reorg = graph.reorganize();
  }
  report.wall_reorg_ms = t.millis();
  if (check_invariants) graph.validate();
  report.sim_reorg_s = static_cast<double>(reorg.entries) * sizeof(VertexId) /
                       (sim.host_mem_bandwidth_gbps * 1e9);
}

}  // namespace gcsm
