#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "core/gpu_engine.hpp"
#include "gpusim/cost_model.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

namespace gcsm::shard {
namespace {

std::string shard_prefix(const std::string& base, std::size_t s) {
  return base + "shard" + std::to_string(s) + ".";
}

}  // namespace

ShardedMatchEngine::ShardedMatchEngine(const CsrGraph& initial,
                                       ShardedEngineOptions options)
    : options_(std::move(options)),
      sg_(initial, options_.num_shards, options_.partition, options_.sim),
      faults_(options_.fault_injector),
      durability_(options_.durability, options_.fault_injector),
      metrics_(options_.metric_prefix),
      pool_(options_.workers == 0 ? options_.num_shards : options_.workers),
      degradation_level_(options_.num_shards, 0),
      clean_device_batches_(options_.num_shards, 0) {
  sg_.set_fault_injector(faults_);
  shard_metrics_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    shard_metrics_.emplace_back(shard_prefix(options_.metric_prefix, s));
  }
  if (options_.kind == EngineKind::kUnifiedMemory) {
    // Same setting as the single-device Pipeline: the UM resident set gets
    // (each shard's share of) the cache budget, so UM genuinely pages.
    options_.sim.um_page_cache_bytes = std::min<std::uint64_t>(
        options_.sim.um_page_cache_bytes,
        std::max<std::uint64_t>(1, options_.cache_budget_bytes /
                                       options_.num_shards));
  }
  if (options_.durability.enabled()) {
    // Initializes WAL sequencing (and truncates any torn tail). Replay is
    // not wired for the sharded engine — see the header.
    cumulative_ = durability_.recover().counters;
  }
}

QueryId ShardedMatchEngine::register_query(QueryGraph query, MatchSink sink) {
  auto qs = std::make_unique<QueryState>();
  qs->id = static_cast<QueryId>(states_.size() + 1);
  qs->matcher = std::make_unique<ShardedMatcher>(std::move(query));
  qs->estimator = std::make_unique<FrequencyEstimator>(qs->matcher->query(),
                                                       options_.estimator);
  qs->rng = Rng(options_.seed + qs->id);
  qs->sink = std::move(sink);
  states_.push_back(std::move(qs));
  return states_.back()->id;
}

std::uint64_t ShardedMatchEngine::effective_cache_budget(
    std::size_t s) const {
  const std::uint64_t per_shard = std::max<std::uint64_t>(
      1, options_.cache_budget_bytes / sg_.num_shards());
  const std::uint64_t shrunk = per_shard >> degradation_level_[s];
  return std::max(shrunk, options_.recovery.min_cache_budget_bytes);
}

void ShardedMatchEngine::run_attempt(const EdgeBatch& clean,
                                     const std::vector<EdgeBatch>& subs,
                                     bool use_cpu, ShardedBatchReport& out,
                                     std::size_t& oom_shard) {
  const std::size_t shards = sg_.num_shards();
  const EngineKind kind = use_cpu ? EngineKind::kCpu : options_.kind;
  const gpusim::SimParams& sim = options_.sim;

  // Reset everything a retried attempt accumulates (retries / backoff /
  // quarantine / wal_seq live on out.shared and persist across attempts).
  out.shards.assign(shards, BatchReport{});
  out.queries.clear();
  out.stitch = StitchStats{};
  out.shared.stats = MatchStats{};
  out.shared.traffic = gpusim::Traffic{};
  out.shared.walks = 0;
  out.shared.cached_vertices = 0;
  out.shared.cache_bytes = 0;
  out.shared.sim_estimate_s = 0.0;
  out.shared.sim_pack_s = 0.0;
  out.shared.sim_match_s = 0.0;
  out.shared.sim_reorg_s = 0.0;

  for (std::size_t s = 0; s < shards; ++s) sg_.device(s).counters().reset();

  // Step 1: per-shard graph maintenance (cut records reach both owners).
  {
    const Timer t;
    for (std::size_t s = 0; s < shards; ++s) {
      phase_update(sg_.graph(s), subs[s], options_.check_invariants,
                   shard_metrics_[s], out.shards[s]);
    }
    out.shared.wall_update_ms = t.millis();
  }

  // Step 2: per-shard cache order, filtered to OWNED vertices — the router
  // only ever sends a shard fetches of vertices it owns, so caching
  // replicated neighbors would waste the budget slice.
  std::vector<std::vector<VertexId>> orders(shards);
  if (uses_cache(kind)) {
    int max_diameter = 0;
    for (const auto& qs : states_) {
      max_diameter = std::max(
          max_diameter, static_cast<int>(qs->matcher->query().diameter()));
    }
    const Timer t;
    for (std::size_t s = 0; s < shards; ++s) {
      BatchReport& sr = out.shards[s];
      const DynamicGraph& g = sg_.graph(s);
      const Timer ts;
      if (kind == EngineKind::kGcsm) {
        std::vector<double> combined;
        std::uint64_t walks = 0;
        std::uint64_t ops = 0;
        if (!subs[s].updates.empty()) {
          for (const auto& qs : states_) {
            const EstimateResult est =
                qs->estimator->estimate(g, subs[s], qs->rng);
            if (est.frequency.size() > combined.size()) {
              combined.resize(est.frequency.size(), 0.0);
            }
            for (std::size_t i = 0; i < est.frequency.size(); ++i) {
              combined[i] += est.frequency[i];
            }
            walks += est.walks;
            ops += est.ops;
            shard_metrics_[s].note_estimate(est);
          }
        }
        orders[s] = select_by_frequency(combined);
        sr.walks = walks;
        sr.sim_estimate_s =
            static_cast<double>(ops) /
            (sim.host_ops_per_sec_per_thread * sim.host_threads);
      } else if (kind == EngineKind::kNaiveDegree) {
        orders[s] = select_by_degree(g);
        sr.sim_estimate_s =
            static_cast<double>(g.num_vertices()) /
            (sim.host_ops_per_sec_per_thread * sim.host_threads);
      } else {  // kVsgm
        orders[s] = khop_vertices(g, subs[s], max_diameter);
      }
      std::erase_if(orders[s], [&](VertexId v) {
        return sg_.owner(v) != static_cast<std::uint32_t>(s);
      });
      if (kind == EngineKind::kVsgm) {
        sr.sim_estimate_s = static_cast<double>(total_list_bytes(g, orders[s])) /
                            (sim.host_mem_bandwidth_gbps * 1e9);
      }
      sr.wall_estimate_ms = ts.millis();
    }
    out.shared.wall_estimate_ms = t.millis();
  }

  // Step 3: per-shard DCSR pack under this shard's degraded budget slice.
  // VSGM's semantic-residency bound is the shard's configured slice.
  const std::uint64_t configured_slice = std::max<std::uint64_t>(
      1, options_.cache_budget_bytes / shards);
  {
    const Timer t;
    for (std::size_t s = 0; s < shards; ++s) {
      oom_shard = s;
      phase_pack(kind, sg_.cache(s), sg_.graph(s), orders[s],
                 effective_cache_budget(s), configured_slice, sg_.device(s),
                 sg_.device(s).counters(), options_.check_invariants, sim,
                 shard_metrics_[s], out.shards[s]);
    }
    out.shared.wall_pack_ms = t.millis();
  }

  // Step 4: routed match per query (the ShardedMatcher fans shard tasks out
  // on the pool and stitches cross-shard partials in supersteps).
  {
    const Timer t;
    std::vector<gpusim::Traffic> match_traffic(shards);
    for (const auto& qsp : states_) {
      QueryState& qs = *qsp;
      if (!use_cpu && faults_ != nullptr &&
          faults_->fires_for(fault_site::kMatchQuery, qs.id)) {
        throw Error(ErrorCode::kKernelLaunch,
                    "injected match.query fault for query " +
                        std::to_string(qs.id));
      }
      std::vector<gpusim::Traffic> per_shard;
      StitchStats stitch;
      const MatchStats stats = qs.matcher->match_batch(
          kind, sg_, clean, pool_, qs.sink ? &qs.sink : nullptr, sim,
          use_cpu ? nullptr : faults_,
          options_.recovery.watchdog_timeout_ms, &per_shard, &stitch);
      out.queries.push_back(ShardQueryReport{qs.id, stats, stitch});
      out.shared.stats += stats;
      out.stitch.routed_items += stitch.routed_items;
      out.stitch.stitch_candidates += stitch.stitch_candidates;
      out.stitch.supersteps =
          std::max(out.stitch.supersteps, stitch.supersteps);
      out.stitch.stitch_seconds += stitch.stitch_seconds;
      for (std::size_t s = 0; s < shards; ++s) {
        match_traffic[s] += per_shard[s];
      }
    }
    out.shared.wall_match_ms = t.millis();
    for (std::size_t s = 0; s < shards; ++s) {
      const gpusim::SimTime st = simulate_time(match_traffic[s], sim);
      out.shards[s].sim_match_s =
          kind == EngineKind::kCpu ? st.host : st.kernel() + st.dma;
      out.shards[s].wall_match_ms = out.shared.wall_match_ms;
      out.shards[s].traffic = sg_.device(s).counters().snapshot();
      out.shards[s].traffic += match_traffic[s];
    }
  }

  // Step 5: per-shard reorganization.
  {
    const Timer t;
    for (std::size_t s = 0; s < shards; ++s) {
      phase_reorg(sg_.graph(s), options_.check_invariants, sim,
                  shard_metrics_[s], out.shards[s]);
    }
    out.shared.wall_reorg_ms = t.millis();
  }

  // Aggregate: devices run in parallel, so simulated phase times are the
  // max over shards; traffic and cache totals sum.
  for (std::size_t s = 0; s < shards; ++s) {
    const BatchReport& sr = out.shards[s];
    out.shared.sim_estimate_s =
        std::max(out.shared.sim_estimate_s, sr.sim_estimate_s);
    out.shared.sim_pack_s = std::max(out.shared.sim_pack_s, sr.sim_pack_s);
    out.shared.sim_match_s = std::max(out.shared.sim_match_s, sr.sim_match_s);
    out.shared.sim_reorg_s =
        std::max(out.shared.sim_reorg_s, sr.sim_reorg_s);
    out.shared.walks += sr.walks;
    out.shared.cached_vertices += sr.cached_vertices;
    out.shared.cache_bytes += sr.cache_bytes;
    out.shared.traffic += sr.traffic;
  }
}

ShardedBatchReport ShardedMatchEngine::process_batch(const EdgeBatch& batch) {
  if (states_.empty()) {
    throw Error(ErrorCode::kConfig, "no query registered");
  }
  const std::size_t shards = sg_.num_shards();
  ShardedBatchReport out;
  const RecoveryOptions& rec = options_.recovery;
  const std::uint64_t faults_before =
      faults_ != nullptr ? faults_->fired_count() : 0;

  // Ingestion: corrupt (fault site), then screen — decision-for-decision
  // the single-device path, with liveness answered by the owning shards.
  EdgeBatch owned;
  const EdgeBatch* use = &batch;
  if (faults_ != nullptr) {
    owned = batch;
    inject_batch_corruption(owned, faults_);
    use = &owned;
  }
  if (rec.sanitize_batches) {
    QuarantineReport quarantine;
    EdgeBatch clean = sg_.sanitize(*use, quarantine);
    if (!quarantine.empty()) {
      owned = std::move(clean);
      use = &owned;
    }
    out.shared.quarantine = std::move(quarantine);
  }

  // One WAL record for the GLOBAL sanitized batch; the per-shard split is
  // deterministic, so recovery can re-derive it.
  std::uint64_t wal_seq = 0;
  if (options_.durability.enabled()) {
    wal_seq = durability_.begin_batch(*use);
    out.shared.wal_seq = wal_seq;
  }

  const std::vector<EdgeBatch> subs = sg_.split_batch(*use);

  // The transaction: every shard's touchable state, restorable together.
  std::vector<DynamicGraph::Snapshot> snaps;
  snaps.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    snaps.push_back(sg_.graph(s).snapshot_for(subs[s]));
  }
  auto rollback = [&] {
    for (std::size_t s = 0; s < shards; ++s) {
      sg_.graph(s).restore(snaps[s]);
      sg_.cache(s).clear();
    }
    if (options_.check_invariants) sg_.validate();
  };

  bool use_cpu = options_.kind == EngineKind::kCpu;
  int attempts_left = std::max(1, rec.max_attempts);
  double backoff_ms = rec.backoff_initial_ms;

  auto retry_or_escalate = [&](const std::exception_ptr& error) {
    ++out.shared.retries;
    --attempts_left;
    if (attempts_left <= 0) {
      if (!use_cpu && rec.cpu_fallback) {
        use_cpu = true;
        attempts_left = std::max(1, rec.max_cpu_attempts);
        out.shared.cpu_fallback = true;
      } else {
        std::rethrow_exception(error);
      }
    }
    if (backoff_ms > 0.0) {
      parker_.park_for_ms(backoff_ms);
      out.shared.backoff_ms += backoff_ms;
      backoff_ms =
          std::min(backoff_ms * rec.backoff_multiplier, rec.backoff_max_ms);
    }
  };

  std::size_t oom_shard = 0;
  for (;;) {
    try {
      run_attempt(*use, subs, use_cpu, out, oom_shard);
      break;
    } catch (const gpusim::DeviceOomError&) {
      rollback();
      if (options_.kind == EngineKind::kVsgm) {
        // Semantic OOM: the k-hop slice must be device-resident.
        throw;
      }
      if (!use_cpu &&
          effective_cache_budget(oom_shard) > rec.min_cache_budget_bytes) {
        // Only the hot shard steps down its ladder.
        ++degradation_level_[oom_shard];
        shard_metrics_[oom_shard].note_degradation();
        metrics_.note_degradation();
        clean_device_batches_[oom_shard] = 0;
        ++out.shared.retries;
      } else {
        retry_or_escalate(std::current_exception());
      }
    } catch (const Error& e) {
      rollback();
      if (!e.transient()) throw;
      retry_or_escalate(std::current_exception());
    } catch (...) {
      rollback();
      throw;
    }
  }

  // Per-shard healing: each ladder earns its budget back independently.
  if (!use_cpu) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (degradation_level_[s] == 0) continue;
      if (out.shared.retries != 0) {
        clean_device_batches_[s] = 0;
      } else if (++clean_device_batches_[s] >=
                 std::max(1, rec.heal_after_clean_batches)) {
        --degradation_level_[s];
        clean_device_batches_[s] = 0;
      }
    }
  }

  out.shared.degradation_level =
      *std::max_element(degradation_level_.begin(), degradation_level_.end());
  out.shared.effective_cache_budget = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    out.shared.effective_cache_budget += effective_cache_budget(s);
  }
  if (faults_ != nullptr) {
    out.shared.faults_observed = faults_->fired_count() - faults_before;
  }

  // Commit: ONE marker per batch carrying the aggregated per-shard
  // counters; the in-memory cumulative state advances only after it lands.
  durable::DurableCounters next = cumulative_;
  next.batches_committed += 1;
  next.cum_signed += out.shared.stats.signed_embeddings;
  next.cum_positive += out.shared.stats.positive;
  next.cum_negative += out.shared.stats.negative;
  if (wal_seq != 0) {
    next.last_seq = wal_seq;
    try {
      durability_.commit_batch(wal_seq, next);
    } catch (...) {
      rollback();
      throw;
    }
  }
  cumulative_ = next;

  sg_.note_applied(*use);
  out.cut_edges = sg_.cut_edges();
  out.imbalance = sg_.partition_stats().imbalance;

  metrics_.record_batch(out.shared);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_metrics_[s].record_batch(out.shards[s]);
  }
  auto& reg = metrics::Registry::global();
  const std::string& prefix = options_.metric_prefix;
  reg.gauge(prefix + metric::kShardCutEdges)
      .set(static_cast<double>(out.cut_edges));
  reg.gauge(prefix + metric::kShardImbalance).set(out.imbalance);
  reg.counter(prefix + metric::kShardRoutedJoins)
      .add(out.stitch.routed_items);
  reg.counter(prefix + metric::kShardStitchCandidates)
      .add(out.stitch.stitch_candidates);
  reg.histogram(prefix + metric::kShardStitchMs)
      .observe(out.stitch.stitch_seconds * 1e3);

  out.shared.metrics = reg.snapshot();
  return out;
}

std::uint64_t ShardedMatchEngine::count_current_embeddings(QueryId id) {
  for (const auto& qs : states_) {
    if (qs->id != id) continue;
    const FaultSuspendGuard suspend(faults_);
    const MatchStats stats =
        qs->matcher->match_full(EngineKind::kCpu, sg_, pool_, options_.sim);
    return stats.positive;
  }
  throw Error(ErrorCode::kConfig, "unknown query id: " + std::to_string(id));
}

}  // namespace gcsm::shard
