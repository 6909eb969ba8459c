#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <string>

#include "core/recovery.hpp"
#include "gpusim/cost_model.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

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
      pool_(options_.workers == 0 ? options_.num_shards : options_.workers) {
  sg_.set_fault_injector(faults_);
  shard_metrics_.reserve(options_.num_shards);
  const std::uint64_t slice = std::max<std::uint64_t>(
      1, options_.cache_budget_bytes / sg_.num_shards());
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    shard_metrics_.emplace_back(shard_prefix(options_.metric_prefix, s));
    budgets_.emplace_back(slice, options_.recovery);
  }
  if (options_.kind == EngineKind::kUnifiedMemory) {
    // Each shard's UM resident set gets that shard's share of the budget.
    options_.sim = clamp_um_resident_set(options_.sim, slice);
  }
  if (options_.durability.enabled()) {
    // Initializes WAL sequencing (and truncates any torn tail). The engine
    // cannot replay, so committed history fails closed: starting from the
    // initial graph would append markers whose counters skip it.
    const RecoveredState recovered = durability_.recover();
    if (recovered.snapshot_loaded || !recovered.replay.empty()) {
      throw Error(ErrorCode::kRecovery,
                  "wal_dir " + options_.durability.wal_dir +
                      " holds committed batches the sharded engine cannot "
                      "replay; recover it through a single-device engine "
                      "(Pipeline or MultiQueryEngine), or start with "
                      "recover_on_start off to discard it");
    }
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

void ShardedMatchEngine::run_attempt(const EdgeBatch& clean,
                                     const std::vector<EdgeBatch>& subs,
                                     bool use_cpu, ShardedBatchReport& out,
                                     std::size_t& oom_shard) {
  const std::size_t shards = sg_.num_shards();
  const EngineKind kind = use_cpu ? EngineKind::kCpu : options_.kind;
  const gpusim::SimParams& sim = options_.sim;

  // Reset what a retried attempt accumulates beyond out.shared, which the
  // transaction loop resets.
  out.shards.assign(shards, BatchReport{});
  out.queries.clear();
  out.stitch = StitchStats{};

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

  // Step 2: the one cache step per shard, over the vertices it owns.
  std::vector<CacheOrder> orders(shards);
  if (uses_cache(kind)) {
    std::uint32_t hops = 0;
    for (const auto& qs : states_) {
      hops = std::max(hops, qs->matcher->query().diameter());
    }
    const Timer t;
    for (std::size_t s = 0; s < shards; ++s) {
      std::vector<WalkContributor> walkers;
      for (const auto& qs : states_) {
        walkers.push_back(
            {qs->estimator.get(), &qs->rng, 1.0, &shard_metrics_[s]});
      }
      const ShardScope scope{
          [this, s](VertexId v) { return sg_.owner(v) == s; },
          [this](VertexId v) -> const DynamicGraph& {
            return sg_.graph(sg_.owner(v));
          },
          &clean};
      orders[s] = phase_estimate(kind, sg_.graph(s), subs[s], walkers, hops,
                                 1.0, &scope, sim, shard_metrics_[s]);
      orders[s].report_into(out.shards[s]);
    }
    out.shared.wall_estimate_ms = t.millis();
  }

  // Step 3: per-shard DCSR pack under this shard's degraded budget slice.
  // VSGM's semantic-residency bound is the shard's configured slice.
  {
    const Timer t;
    for (std::size_t s = 0; s < shards; ++s) {
      oom_shard = s;
      phase_pack(kind, sg_.cache(s), sg_.graph(s), orders[s].order,
                 budgets_[s].effective(), budgets_[s].configured(),
                 sg_.device(s), sg_.device(s).counters(),
                 options_.check_invariants, sim, shard_metrics_[s],
                 out.shards[s]);
    }
    out.shared.wall_pack_ms = t.millis();
  }

  // Step 4: routed match per query (the ShardedMatcher fans shard tasks out
  // on the pool and stitches cross-shard partials in supersteps).
  {
    const trace::Span span(metrics_.span_match());
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
  const trace::Span batch_span(metrics_.span_batch());
  const std::size_t shards = sg_.num_shards();
  ShardedBatchReport out;
  const std::uint64_t faults_before =
      faults_ != nullptr ? faults_->fired_count() : 0;

  // Ingestion: decision-for-decision the single-device path, with liveness
  // answered by the owning shards.
  const EdgeBatch use = ingest_batch(
      batch, faults_, options_.recovery,
      [this](const EdgeBatch& b, QuarantineReport& q) {
        return sg_.sanitize(b, q);
      },
      out.shared.quarantine);

  const std::vector<EdgeBatch> subs = sg_.split_batch(use);

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

  // Escalation re-runs the batch on the CPU engine; a device OOM shrinks
  // only the budget of the shard whose pack failed.
  RetryLadder ladder(options_.recovery, options_.kind == EngineKind::kCpu);
  std::size_t oom_shard = 0;
  run_transaction(
      ladder, options_.kind, out.shared, parker_,
      [&](bool use_cpu) { run_attempt(use, subs, use_cpu, out, oom_shard); },
      rollback,
      [&] {
        if (!budgets_[oom_shard].degrade(shard_metrics_[oom_shard])) {
          return false;
        }
        metrics_.note_degradation();
        return true;
      });
  out.shared.cpu_fallback = ladder.fell_back();

  // Each shard's budget heals independently.
  for (BudgetLadder& budget : budgets_) {
    if (!ladder.escalated()) budget.heal(out.shared.retries == 0);
    out.shared.degradation_level =
        std::max(out.shared.degradation_level, budget.level());
    out.shared.effective_cache_budget += budget.effective();
  }
  if (faults_ != nullptr) {
    out.shared.faults_observed = faults_->fired_count() - faults_before;
  }

  // Commit: ONE unit per batch, the GLOBAL sanitized batch (the per-shard
  // split is deterministic, so recovery can re-derive it) and a marker
  // carrying the aggregated per-shard counters; the in-memory cumulative
  // state advances only after it lands.
  out.shared.wal_seq = commit_transaction(
      durability_, cumulative_, out.shared.stats,
      options_.durability.enabled() ? &use : nullptr, rollback);

  sg_.note_applied(use);
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
