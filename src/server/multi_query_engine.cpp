#include "server/multi_query_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "core/gpu_engine.hpp"
#include "core/recovery.hpp"
#include "util/durable_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace gcsm::server {
namespace {

QueryCounters to_query_counters(const MatchStats& s) {
  return QueryCounters{s.signed_embeddings, s.positive, s.negative, s.seeds};
}

}  // namespace

// Per-batch state threaded through process_batch_inner by the pipelined
// schedule (process_stream); a null ctx means serial process_batch
// semantics.
struct MultiQueryEngine::PipelineCtx {
  // One deferred sink callback: delivered verbatim once the batch has
  // committed. The plan pointer stays valid for the engine's lifetime
  // (plans are owned by the query's MatchEngine).
  struct SinkRecord {
    const MatchPlan* plan = nullptr;
    std::vector<VertexId> bindings;
    int sign = 0;
  };

  // The CPU front half of one batch, staged on the match pool while the
  // previous batch's fan-out is in flight: corruption screening and the
  // shared frequency estimation.
  struct Front {
    bool valid = false;
    EdgeBatch batch;              // corrupted + sanitized next batch
    QuarantineReport quarantine;
    std::vector<MatchRole> roles;  // role snapshot the estimate assumed
    std::optional<CacheOrder> est;  // absent for kinds that cache nothing
    std::exception_ptr error;      // staging failed; rethrown on consume
  };

  Front* front = nullptr;            // consumed by this batch (may be null)
  const EdgeBatch* next_batch = nullptr;  // staged during this fan-out
  Front* next_front = nullptr;
  // Deferred sink buffers, one per registered query (registration order).
  std::vector<std::vector<SinkRecord>>* buffers = nullptr;
};

MultiQueryEngine::MultiQueryEngine(const CsrGraph& initial,
                                   MultiQueryOptions options)
    : options_(std::move(options)),
      graph_(initial),
      device_(options_.sim),
      faults_(options_.fault_injector),
      durability_(options_.durability, options_.fault_injector),
      metrics_(options_.metric_prefix),
      match_pool_(options_.match_parallelism),
      seed_root_(options_.seed),
      initial_(options_.durability.enabled() ? initial : CsrGraph{}) {
  device_.set_fault_injector(faults_);
  graph_.set_fault_injector(faults_);
  if (!options_.durability.enabled()) return;
  registry_path_ = options_.durability.wal_dir + "/queries.reg";

  if (!options_.durability.recover_on_start) {
    // Fresh start: scrub durable state (recover() truncates the WAL and
    // removes the snapshot) including the registry image.
    recovery_info_ = durability_.recover();
    std::remove(registry_path_.c_str());
    return;
  }

  // The registry restores FIRST: replayed batches must run against exactly
  // the query set they were committed under. The image carries every
  // query's breaker state and counters plus an aggregate anchor, all under
  // one CRC — a damaged image is fatal (kRecovery), never silently ignored.
  if (const auto bytes = io::read_file_if_exists(registry_path_)) {
    std::string why;
    auto reg = QueryRegistry::decode(*bytes, &why);
    if (!reg.has_value()) {
      throw Error(ErrorCode::kRecovery,
                  "registry image " + registry_path_ + " damaged: " + why);
    }
    registry_ = std::move(*reg);
    for (const RegisteredQuery& entry : registry_.entries()) {
      states_.push_back(make_state(entry));
    }
  }

  recovery_info_ = durability_.recover();
  if (recovery_info_.snapshot_loaded) {
    graph_.restore(recovery_info_.graph);
    if (options_.check_invariants) graph_.validate();
    cumulative_ = recovery_info_.counters;
  }

  // Anchor selection: the image is rewritten after every commit, so its
  // aggregate is normally ahead of the snapshot's and lets most of the
  // replay run graph-only (no matching). The image anchor is trusted past
  // the snapshot only when the replay actually REACHES it — the WAL's
  // prefix property then guarantees every batch in between is present. A
  // fresher-looking image whose seq the (possibly compacted) WAL cannot
  // reach would otherwise let a damaged snapshot slip past the integrity
  // gate with a graph that silently skipped batches.
  const durable::DurableCounters& image_anchor = registry_.aggregate();
  if (image_anchor.last_seq >= cumulative_.last_seq &&
      image_anchor.batches_committed >= cumulative_.batches_committed) {
    bool reachable = image_anchor.last_seq == cumulative_.last_seq;
    for (const auto& [seq, batch] : recovery_info_.replay) {
      if (seq == image_anchor.last_seq) {
        reachable = true;
        break;
      }
    }
    if (reachable) cumulative_ = image_anchor;
  }
  const std::uint64_t anchor_seq = cumulative_.last_seq;

  // Health-transition records are applied in log order, each one before the
  // equal-seq batch it belongs to, and only when its revision is newer than
  // the image's (a crash between the WAL append and the image rewrite
  // converges to the same state as a crash after both). Tables are
  // absolute, so a duplicate revision from a failed-then-retried batch is
  // harmless. The aggregate carried by a record (which folds a re-join's
  // catch-up correction — unreconstructible from batch records alone) only
  // ever moves the anchor forward.
  auto apply_record = [&](std::uint64_t seq, const std::string& payload) {
    std::string why;
    auto t = decode_transition(payload, &why);
    if (!t.has_value()) {
      throw Error(ErrorCode::kRecovery, "WAL health transition at seq " +
                                            std::to_string(seq) +
                                            " damaged: " + why);
    }
    if (t->revision <= registry_.health_revision()) return;
    for (const auto& [id, health] : t->table) {
      if (RegisteredQuery* entry = registry_.find_mutable(id)) {
        entry->health = health;
      }
      // Unknown ids were unregistered after the record was written; their
      // state is gone with them.
    }
    registry_.set_health_revision(t->revision);
    if (t->aggregate.last_seq >= cumulative_.last_seq) {
      cumulative_ = t->aggregate;
    }
  };
  const auto& records = recovery_info_.server_states;
  std::size_t ri = 0;

  if (!recovery_info_.replay.empty() || !records.empty()) {
    // Batches at or below the anchor replay graph-only and need no query:
    // the registry may have been emptied after they committed.
    if (states_.empty() && !recovery_info_.replay.empty() &&
        recovery_info_.replay.back().first > anchor_seq) {
      throw Error(ErrorCode::kRecovery,
                  "WAL holds committed batches but no query is registered");
    }
    // Deterministic replay through the restored query set. Sinks are not
    // attached yet, so no subscriber callback fires twice; faults are
    // suspended and `replaying_` prevents re-logging. Batches at or below
    // the anchor replay graph-only; the rest replay fully, each query
    // participating iff it is healthy at that point in the log and its
    // position is behind the batch.
    const FaultSuspendGuard suspend(faults_);
    replaying_ = true;
    try {
      for (const auto& [seq, batch] : recovery_info_.replay) {
        while (ri < records.size() && records[ri].first <= seq) {
          apply_record(records[ri].first, records[ri].second);
          ++ri;
        }
        replay_seq_ = seq;
        replay_graph_only_ = seq <= anchor_seq;
        process_batch(batch);
        if (!replay_graph_only_) cumulative_.last_seq = seq;
      }
      // Trailing records (a transition made durable whose batch never
      // committed) still apply: the durable side is conservatively ahead.
      while (ri < records.size()) {
        apply_record(records[ri].first, records[ri].second);
        ++ri;
      }
    } catch (...) {
      replaying_ = false;
      throw;
    }
    replaying_ = false;
    replay_graph_only_ = false;
  }
  check_replay(recovery_info_, cumulative_);
  // Post-gate normalization: healthy queries participated in everything
  // that replayed, so their positions land on the aggregate's (v1 images
  // and snapshot-anchored replays leave them stale). Quarantined debt is
  // re-measured against the final position — a snapshot written past a
  // frozen position (or a debt window crossed while down) means re-join
  // must re-baseline.
  for (const RegisteredQuery& e : registry_.entries()) {
    RegisteredQuery* entry = registry_.find_mutable(e.id);
    if (entry->health.state == HealthState::kHealthy) {
      entry->health.last_applied_seq = cumulative_.last_seq;
    } else if (!entry->health.debt_overflow &&
               cumulative_.last_seq - entry->health.last_applied_seq >
                   options_.breaker.max_debt_batches) {
      entry->health.debt_overflow = true;
    }
  }
  refresh_breaker_gauges();
}

std::unique_ptr<MultiQueryEngine::QueryState> MultiQueryEngine::make_state(
    const RegisteredQuery& entry) {
  auto qs = std::make_unique<QueryState>();
  qs->id = entry.id;
  qs->weight = entry.weight;
  qs->executor = std::make_unique<gpusim::SimtExecutor>(options_.workers,
                                                        options_.schedule);
  qs->executor->set_fault_injector(faults_);
  qs->executor->set_watchdog_timeout_ms(
      options_.recovery.watchdog_timeout_ms);
  qs->engine =
      std::make_unique<MatchEngine>(entry.query, *qs->executor,
                                    options_.grain);
  qs->estimator = std::make_unique<FrequencyEstimator>(qs->engine->query(),
                                                       options_.estimator);
  if (options_.kind == EngineKind::kUnifiedMemory) {
    qs->um_policy = std::make_unique<UnifiedMemoryPolicy>(
        graph_,
        clamp_um_resident_set(options_.sim, options_.cache_budget_bytes));
  }
  qs->metrics = std::make_unique<PipelineMetrics>(
      options_.metric_prefix + "q" + std::to_string(entry.id) + ".");
  // Independent deterministic stream per query id, so registration order
  // and the shared engine's own draws never shift a query's walks.
  qs->rng = seed_root_.split(entry.id);
  return qs;
}

MultiQueryEngine::QueryState* MultiQueryEngine::state_for(QueryId id) {
  for (auto& qs : states_) {
    if (qs->id == id) return qs.get();
  }
  return nullptr;
}

std::uint64_t MultiQueryEngine::current_position() const {
  return options_.durability.enabled() ? cumulative_.last_seq
                                       : cumulative_.batches_committed;
}

bool MultiQueryEngine::any_exact_catchup_debt() const {
  for (const RegisteredQuery& e : registry_.entries()) {
    if (e.health.state == HealthState::kQuarantined &&
        !e.health.debt_overflow) {
      return true;
    }
  }
  return false;
}

void MultiQueryEngine::refresh_breaker_gauges() const {
  auto& quarantined = metrics::Registry::global().gauge(
      options_.metric_prefix + metric::kServerBreakerQuarantined);
  auto& debt = metrics::Registry::global().gauge(
      options_.metric_prefix + metric::kServerCatchupDebtBatches);
  const std::uint64_t position = current_position();
  double quarantined_count = 0.0;
  double debt_sum = 0.0;
  for (const RegisteredQuery& e : registry_.entries()) {
    if (e.health.state != HealthState::kQuarantined) continue;
    quarantined_count += 1.0;
    if (!e.health.debt_overflow && position > e.health.last_applied_seq) {
      debt_sum += static_cast<double>(position - e.health.last_applied_seq);
    }
  }
  quarantined.set(quarantined_count);
  debt.set(debt_sum);
}

void MultiQueryEngine::persist_registry() {
  if (registry_path_.empty()) return;
  registry_.set_aggregate(cumulative_);
  io::atomic_write_file(registry_path_, registry_.encode(),
                        options_.durability.fsync, faults_);
}

bool MultiQueryEngine::write_registry_image() {
  try {
    persist_registry();
    return true;
  } catch (const CrashError&) {
    throw;
  } catch (const Error& e) {
    // Best-effort: a stale image only costs replay work at recovery (the
    // anchor falls behind), never correctness. But a snapshot must NOT be
    // written after a failed image rewrite — the snapshot would advance the
    // graph past per-query counters the image can no longer account for.
    std::fprintf(stderr, "[gcsm] warning: registry image rewrite failed: %s\n",
                 e.what());
    return false;
  }
}

QueryId MultiQueryEngine::register_query(QueryGraph query, MatchSink sink,
                                         double weight) {
  const QueryId id = registry_.add(std::move(query), weight);
  // Anchor the new query at the current position: recovery replay must
  // never feed it batches committed before it existed.
  registry_.find_mutable(id)->health.last_applied_seq = current_position();
  try {
    states_.push_back(make_state(*registry_.find(id)));
    states_.back()->sink = std::move(sink);
    persist_registry();
  } catch (...) {
    if (!states_.empty() && states_.back()->id == id) states_.pop_back();
    registry_.remove(id);
    throw;
  }
  return id;
}

bool MultiQueryEngine::unregister_query(QueryId id) {
  const RegisteredQuery* entry = registry_.find(id);
  if (entry == nullptr) return false;
  RegisteredQuery saved = *entry;
  registry_.remove(id);
  std::unique_ptr<QueryState> saved_state;
  for (auto it = states_.begin(); it != states_.end(); ++it) {
    if ((*it)->id == id) {
      saved_state = std::move(*it);
      states_.erase(it);
      break;
    }
  }
  try {
    persist_registry();
  } catch (...) {
    registry_.restore(std::move(saved));
    auto it = states_.begin();
    while (it != states_.end() && (*it)->id < id) ++it;
    states_.insert(it, std::move(saved_state));
    throw;
  }
  refresh_breaker_gauges();
  return true;
}

void MultiQueryEngine::attach_sink(QueryId id, MatchSink sink) {
  QueryState* qs = state_for(id);
  if (qs == nullptr) {
    throw Error(ErrorCode::kConfig,
                "unknown query id " + std::to_string(id));
  }
  qs->sink = std::move(sink);
}

const QueryHealth& MultiQueryEngine::query_health(QueryId id) const {
  const RegisteredQuery* entry = registry_.find(id);
  if (entry == nullptr) {
    throw Error(ErrorCode::kConfig,
                "unknown query id " + std::to_string(id));
  }
  return entry->health;
}

CacheOrder MultiQueryEngine::shared_cache_order(
    const EdgeBatch& batch, const std::vector<MatchRole>& roles) {
  // ONE cross-query cache order. GCSM combines per-query random-walk
  // estimates by weight into a single frequency vector; the baselines'
  // orders are query-independent (degree) or take the worst case over the
  // registered patterns (VSGM's k = max diameter). Only queries actually
  // matching this batch contribute walks — a quarantined tenant neither
  // spends walk budget nor biases the shared cache (safe: cache content
  // never changes match counts, and each query draws from its own rng
  // stream). The hop count stays the max over ALL registered queries,
  // quarantined ones included: VSGM's residency is a semantic requirement
  // and a re-joining tenant must find its k-hop data present immediately.
  // The pipelined schedule stages this during the previous batch's matches,
  // pre-apply: the order then sees the graph one update earlier than the
  // serial schedule — a cache-content difference only, never a count
  // difference.
  std::vector<WalkContributor> walkers;
  std::uint32_t hops = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    QueryState& qs = *states_[i];
    hops = std::max(hops, qs.engine->query().diameter());
    if (roles[i] == MatchRole::kMatch) {
      walkers.push_back(
          {qs.estimator.get(), &qs.rng, qs.weight, qs.metrics.get()});
    }
  }
  return phase_estimate(options_.kind, graph_, batch, walkers, hops,
                        walk_scale_, nullptr, options_.sim, metrics_);
}

void MultiQueryEngine::run_shared_attempt(const EdgeBatch& batch,
                                          bool drop_cache,
                                          const std::vector<MatchRole>& roles,
                                          BatchReport& shared,
                                          const CacheOrder* staged) {
  gpusim::TrafficCounters& counters = device_.counters();
  counters.reset();

  // Step 1: dynamic graph maintenance — once for every query.
  phase_update(graph_, batch, options_.check_invariants, metrics_, shared);

  if (drop_cache || !uses_cache(options_.kind)) return;

  // Step 2: the shared cache order — staged by the pipelined schedule
  // during the previous fan-out when its role snapshot held, computed
  // inline on every attempt otherwise.
  CacheOrder inline_order;
  if (staged == nullptr) {
    inline_order = shared_cache_order(batch, roles);
    staged = &inline_order;
  }
  staged->report_into(shared);

  // Step 3: ONE DCSR pack + DMA under the shared (possibly degraded)
  // budget.
  phase_pack(options_.kind, cache_, graph_, staged->order,
             budget_.effective(), options_.cache_budget_bytes, device_,
             counters, options_.check_invariants, options_.sim, metrics_,
             shared);
}

void MultiQueryEngine::match_attempt(QueryState& qs, const EdgeBatch& batch,
                                     bool use_cpu, const MatchSink* sink,
                                     BatchReport& qr) {
  const EngineKind kind = use_cpu ? EngineKind::kCpu : options_.kind;
  // Like the Pipeline, kernel fault sites stay armed only on device
  // attempts; the CPU path is genuinely more reliable. The match.query site
  // is the exception: it models a poison QUERY (a pattern that breaks the
  // match kernel wherever it runs), so it is probed on every attempt — the
  // CPU escalation cannot outrun it and the ladder genuinely exhausts.
  qs.executor->set_fault_injector(use_cpu ? nullptr : faults_);
  if (faults_ != nullptr &&
      faults_->fires_for(fault_site::kMatchQuery, qs.id)) {
    throw Error(ErrorCode::kKernelLaunch,
                "injected match.query fault for query " +
                    std::to_string(qs.id));
  }
  reset_attempt(qr);
  gpusim::TrafficCounters qcounters;
  // UM keeps the query's page cache across batches.
  const std::unique_ptr<AccessPolicy> fresh =
      kind == EngineKind::kUnifiedMemory
          ? nullptr
          : make_access_policy(kind, graph_, cache_, options_.sim);
  phase_match(kind, *qs.engine, graph_, batch,
              fresh ? *fresh : *qs.um_policy, qcounters, sink, options_.sim,
              *qs.metrics, qr);
  if (options_.breaker.match_deadline_ms > 0 &&
      qr.wall_match_ms >
          static_cast<double>(options_.breaker.match_deadline_ms)) {
    // Post-hoc deadline: the attempt DID complete (and a sink, if any,
    // already saw its embeddings — retried deadline batches deliver
    // at-least-once), but a tenant this slow counts as a ladder failure so
    // the breaker can isolate it.
    throw Error(ErrorCode::kKernelTimeout,
                "query " + std::to_string(qs.id) + " exceeded the " +
                    std::to_string(options_.breaker.match_deadline_ms) +
                    "ms match deadline");
  }
  qr.traffic = qcounters.snapshot();
}

void MultiQueryEngine::run_match_fanout(
    const EdgeBatch& batch, const std::vector<MatchRole>& roles,
    ServerBatchReport& out, std::vector<MatchOutcome>& outcomes,
    const std::function<void()>& staging,
    const std::vector<MatchSink>* sink_override) {
  using Clock = std::chrono::steady_clock;

  // One shared ready-queue instead of a static partition: a retrying query
  // parks here with a ready-at deadline while its backoff elapses, so the
  // backoff sleep never holds a pool slot hostage (the head-of-line fix —
  // with N queries and N workers, one flaky tenant used to serialize
  // everyone behind its exponential backoff).
  struct Task {
    std::size_t index = 0;
    RetryLadder ladder;  // escalation re-runs the query on the CPU engine
    // Backoff accumulated by THIS task so far. Folded into the query's
    // report exactly once, at a terminal outcome — the report field is
    // shared with the completion bookkeeping, and accumulating it from the
    // retry path on every park interleaved with other workers' reads.
    double backoff_total = 0.0;
    Clock::time_point ready_at;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Task> queue;
  std::size_t in_flight = 0;

  const Clock::time_point now0 = Clock::now();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    out.queries[i].id = states_[i]->id;
    out.queries[i].name = states_[i]->engine->query().name();
    if (roles[i] == MatchRole::kSkip) {
      out.queries[i].skipped = true;
      continue;
    }
    queue.push_back(Task{
        i, RetryLadder(options_.recovery, options_.kind == EngineKind::kCpu),
        0.0, now0});
  }
  if (queue.empty()) {
    // No match work this batch, but the pipelined schedule may still owe
    // the next batch's front half.
    if (staging) staging();
    return;
  }

  // The pipelined schedule's overlap point: the first worker to claim it
  // runs the next batch's CPU front half (sanitize + estimate) alongside —
  // not after — this batch's matches.
  std::atomic<bool> staging_claimed{!static_cast<bool>(staging)};

  match_pool_.run_on_all([&](std::size_t) {
    if (!staging_claimed.exchange(true)) staging();
    for (;;) {
      std::optional<Task> claimed;
      {
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
          if (queue.empty()) {
            if (in_flight == 0) {
              cv.notify_all();
              return;
            }
            cv.wait(lk);
            continue;
          }
          auto it = std::min_element(queue.begin(), queue.end(),
                                     [](const Task& a, const Task& b) {
                                       return a.ready_at < b.ready_at;
                                     });
          if (it->ready_at > Clock::now()) {
            // Nothing ready yet: wait out the earliest deadline (or a state
            // change — a finishing worker may re-enqueue something sooner).
            cv.wait_until(lk, it->ready_at);
            continue;
          }
          claimed = *it;
          queue.erase(it);
          ++in_flight;
          break;
        }
      }
      Task& task = *claimed;

      QueryState& qs = *states_[task.index];
      QueryReport& q = out.queries[task.index];
      const MatchSink* sink = nullptr;
      if (!replaying_ && roles[task.index] == MatchRole::kMatch) {
        const MatchSink& chosen = sink_override != nullptr
                                      ? (*sink_override)[task.index]
                                      : qs.sink;
        if (chosen) sink = &chosen;
      }
      bool ok = false;
      bool retryable = false;
      std::exception_ptr error;
      try {
        match_attempt(qs, batch, task.ladder.escalated(), sink, q.report);
        ok = true;
      } catch (const Error& e) {
        // The match phase is read-only on the shared graph, so no rollback
        // is needed — a failed attempt simply re-runs this one query.
        // Device OOM counts as retryable for the query (the shared budget
        // ladder owns capacity decisions).
        error = std::current_exception();
        retryable = e.transient() || e.code() == ErrorCode::kDeviceOom;
      } catch (...) {
        error = std::current_exception();
      }

      const std::lock_guard<std::mutex> lk(mu);
      --in_flight;
      std::optional<double> delay;
      if (!ok && retryable) {
        ++q.report.retries;
        delay = task.ladder.step();
        q.report.cpu_fallback = task.ladder.fell_back();
      }
      if (delay) {
        // Park until the backoff elapses instead of sleeping on a slot. The
        // backoff stays task-local (backoff_total) until a terminal outcome
        // merges it into the report in one step.
        task.ready_at =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   *delay));
        task.backoff_total += *delay;
        queue.push_back(std::move(task));
      } else {
        q.report.backoff_ms += task.backoff_total;
        if (!ok) {
          // A retryable error here has exhausted the whole ladder.
          outcomes[task.index] = MatchOutcome{error, retryable};
        } else if (roles[task.index] == MatchRole::kMatch) {
          q.report.degradation_level = budget_.level();
          q.report.effective_cache_budget = budget_.effective();
        }
      }
      cv.notify_all();
    }
  });
}

bool MultiQueryEngine::replay_missed_batches(QueryState& qs,
                                             const QueryHealth& health,
                                             QueryCounters* delta,
                                             const MatchSink* sink) {
  auto& replayed = metrics::Registry::global().counter(
      options_.metric_prefix + metric::kServerCatchupBatchesReplayed);
  const std::uint64_t target = cumulative_.last_seq;
  *delta = QueryCounters{};
  if (health.last_applied_seq >= target) return true;  // no debt after all

  // Shadow base: the latest snapshot, but only when it does not overshoot
  // the frozen position (a snapshot past the position has already folded
  // batches this query still needs to MATCH). Snapshot deferral keeps the
  // interval snapshot behind every exact debt, so this is a guard.
  const FaultSuspendGuard suspend(faults_);
  DynamicGraph shadow(initial_);
  std::uint64_t shadow_seq = 0;
  std::string why;
  if (auto snap =
          durable::load_snapshot_file(durability_.snapshot_path(), &why)) {
    if (snap->counters.last_seq > health.last_applied_seq) return false;
    shadow.restore(snap->graph);
    shadow_seq = snap->counters.last_seq;
  }

  const auto missed = durability_.committed_batches(shadow_seq, target);
  if (!missed) return false;

  // (shadow_seq, position] rebuilds the graph the query last saw;
  // (position, target] is the debt proper: apply + match, with sink
  // delivery (a subscriber that lived through the outage receives the
  // missed embeddings now — at-least-once across crashes, since a crash
  // before this batch commits repeats the catch-up).
  HostPolicy policy(shadow);
  gpusim::TrafficCounters scratch;
  for (const auto& [seq, batch] : *missed) {
    shadow.apply_batch(batch);
    if (seq > health.last_applied_seq) {
      // Match against the pending-batch graph state — the same state the
      // live phase-4 matches in (reorg comes after the match).
      const MatchStats stats =
          qs.engine->match_batch(shadow, batch, policy, scratch, sink);
      *delta += to_query_counters(stats);
      replayed.add();
    }
    shadow.reorganize();
  }
  return true;
}

ServerBatchReport MultiQueryEngine::process_batch(const EdgeBatch& batch) {
  return process_batch_inner(batch, nullptr);
}

void MultiQueryEngine::set_walk_scale(double scale) {
  walk_scale_ = std::min(1.0, std::max(scale, 1.0 / 1024.0));
}

std::uint64_t MultiQueryEngine::log_shed_batch(const std::string& payload) {
  static auto& m_records =
      metrics::Registry::global().counter(metric::kServerShedWalRecords);
  if (!durability_.options().enabled() || replaying_) return 0;
  const std::uint64_t seq = durability_.log_shed(payload);
  m_records.add();
  return seq;
}

ServerBatchReport MultiQueryEngine::process_batch_inner(const EdgeBatch& batch,
                                                        PipelineCtx* ctx) {
  if (registry_.empty() && !replay_graph_only_) {
    throw Error(ErrorCode::kConfig,
                "no query registered; register_query before process_batch");
  }
  const trace::Span batch_span(metrics_.span_batch());
  ServerBatchReport out;
  BatchReport& shared = out.shared;
  const BreakerOptions& breaker = options_.breaker;
  const std::uint64_t faults_before =
      faults_ != nullptr ? faults_->fired_count() : 0;

  // Ingestion: corrupt (fault site), then screen — once for all queries.
  // The pipelined schedule already did both while the previous batch's
  // fan-out was in flight; a staging failure is rethrown HERE, before any
  // state is touched, so it fails this batch exactly like an inline one.
  PipelineCtx::Front* front =
      ctx != nullptr && ctx->front != nullptr && ctx->front->valid
          ? ctx->front
          : nullptr;
  if (front != nullptr && front->error != nullptr) {
    std::rethrow_exception(front->error);
  }
  const Sanitizer sanitize = [this](const EdgeBatch& b, QuarantineReport& q) {
    return sanitize_batch(graph_, b, q);
  };
  EdgeBatch use;
  if (front != nullptr) {
    use = std::move(front->batch);
    shared.quarantine = std::move(front->quarantine);
  } else {
    use = ingest_batch(batch, faults_, options_.recovery, sanitize,
                       shared.quarantine);
  }

  // Recovery fast path: a replayed batch at or below the aggregate anchor
  // is already folded into every counter the image carries — it only needs
  // to move the GRAPH forward (update + reorg, no estimation, no matching).
  if (replaying_ && replay_graph_only_) {
    phase_update(graph_, use, options_.check_invariants, metrics_, shared);
    phase_reorg(graph_, options_.check_invariants, options_.sim, metrics_,
                shared);
    out.queries.resize(states_.size());
    for (std::size_t i = 0; i < states_.size(); ++i) {
      out.queries[i].id = states_[i]->id;
      out.queries[i].skipped = true;
    }
    return out;
  }

  // Role classification. Live: healthy queries match, quarantined queries
  // whose cooldown elapsed run a half-open probe, the rest are skipped.
  // Replay: participation is decided by the recovered health and position
  // (probes never run under replay — cooldown is in-memory only and resets
  // conservatively on restart).
  const std::size_t n = states_.size();
  std::vector<MatchRole> roles(n, MatchRole::kSkip);
  for (std::size_t i = 0; i < n; ++i) {
    const QueryHealth& h = registry_.find(states_[i]->id)->health;
    if (replaying_) {
      roles[i] = (h.state == HealthState::kHealthy &&
                  h.last_applied_seq < replay_seq_)
                     ? MatchRole::kMatch
                     : MatchRole::kSkip;
    } else if (h.state == HealthState::kHealthy) {
      roles[i] = MatchRole::kMatch;
    } else if (states_[i]->cooldown_remaining == 0) {
      roles[i] = MatchRole::kProbe;
    }
  }

  // Staged-estimate validity: the front's estimate assumed the role set as
  // of the previous fan-out. Epilogue transitions (trips, re-joins) since
  // then change which queries contribute walks, so a changed kMatch set
  // discards the staged order and re-estimates inline — cache content is
  // count-neutral, but walk budget and arbitration must follow the roles
  // that actually match.
  const CacheOrder* staged_est = nullptr;
  if (front != nullptr && front->est) {
    bool same = front->roles.size() == n;
    for (std::size_t i = 0; same && i < n; ++i) {
      same = (front->roles[i] == MatchRole::kMatch) ==
             (roles[i] == MatchRole::kMatch);
    }
    if (same) {
      staged_est = &*front->est;
    } else {
      metrics::Registry::global()
          .counter(options_.metric_prefix +
                   metric::kPipelineOverlapStagedDiscards)
          .add();
    }
  }

  const DynamicGraph::Snapshot snap = graph_.snapshot_for(use);
  auto rollback = [&] {
    graph_.restore(snap);
    cache_.clear();
    if (options_.check_invariants) graph_.validate();
  };

  // Shared phases 1-3 under the shared recovery ladder. The escalation is
  // not a CPU re-run (matching has not happened yet) but dropping the cache:
  // the batch is served zero-copy, which cannot change any query's counts.
  RetryLadder ladder(options_.recovery, /*escalated=*/false);
  run_transaction(
      ladder, options_.kind, shared, parker_,
      [&](bool drop_cache) {
        run_shared_attempt(use, drop_cache, roles, shared, staged_est);
      },
      rollback,
      [this] { return budget_.degrade(metrics_); });
  out.cache_dropped = ladder.fell_back();

  // Phase 4: fan the match out across the participating queries. Each
  // query runs on a pool thread with its own executor, counters, and
  // metric scope; the graph and cache are read-only here, so the only
  // shared mutable state is thread-safe (metrics, traces, the injector).
  //
  // Pipelined extras: per-query sinks are swapped for deferred buffers
  // (flushed by process_stream once this batch has committed), and the
  // NEXT batch's CPU front half rides the same pool as one more task — its
  // sanitize + estimate overlap these matches.
  out.queries.resize(n);
  std::vector<MatchOutcome> outcomes(n);
  std::vector<MatchSink> wrapped;
  const std::vector<MatchSink>* sink_override = nullptr;
  if (ctx != nullptr) {
    wrapped.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!states_[i]->sink) continue;
      auto* buf = &(*ctx->buffers)[i];
      wrapped[i] = [buf](const MatchPlan& plan,
                         std::span<const VertexId> bindings, int sign) {
        buf->push_back(PipelineCtx::SinkRecord{
            &plan, {bindings.begin(), bindings.end()}, sign});
      };
    }
    sink_override = &wrapped;
  }
  std::function<void()> staging;
  if (ctx != nullptr && ctx->next_batch != nullptr) {
    PipelineCtx::Front* nf = ctx->next_front;
    *nf = PipelineCtx::Front{};
    staging = [this, nf, next = ctx->next_batch, roles, &sanitize] {
      try {
        nf->batch = ingest_batch(*next, faults_, options_.recovery, sanitize,
                                 nf->quarantine);
        nf->roles = roles;
        if (uses_cache(options_.kind)) {
          // Pre-apply estimation: sees the graph one update earlier than
          // the serial schedule would (count-neutral; the rng draw order
          // per query is unchanged, one estimate per batch).
          nf->est = shared_cache_order(nf->batch, roles);
          metrics::Registry::global()
              .counter(options_.metric_prefix +
                       metric::kPipelineOverlapStagedEstimates)
              .add();
        }
        nf->valid = true;
      } catch (...) {
        // Surfaces when the next batch consumes the front — same failure
        // point an inline ingestion error would have.
        nf->error = std::current_exception();
        nf->valid = true;
      }
    };
  }
  run_match_fanout(use, roles, out, outcomes, staging, sink_override);

  // Terminal per-query outcomes. A full-ladder exhaustion extends the
  // query's consecutive-failure streak; reaching the trip threshold stages
  // a trip (the batch then commits WITHOUT the poison tenant). Anything
  // short of a trip keeps the pre-breaker contract: the batch fails as a
  // unit, no trip is applied on a failed batch (streaks persist in memory,
  // so the NEXT failure trips), and non-retryable errors never trip.
  std::exception_ptr fatal;
  std::vector<std::size_t> tripped_idx;
  std::vector<std::size_t> probe_passed_idx;
  for (std::size_t i = 0; i < n; ++i) {
    QueryState& qs = *states_[i];
    if (roles[i] == MatchRole::kMatch) {
      if (outcomes[i].error == nullptr) {
        qs.consecutive_failures = 0;
        continue;
      }
      out.queries[i].report.stats = MatchStats{};  // a deadline trip may
                                                   // have left stats behind
      if (outcomes[i].ladder_exhausted) {
        ++qs.consecutive_failures;
        if (breaker.enabled && !replaying_ &&
            qs.consecutive_failures >= breaker.trip_after_failures) {
          tripped_idx.push_back(i);
          continue;
        }
      }
      if (fatal == nullptr) fatal = outcomes[i].error;
    } else if (roles[i] == MatchRole::kProbe) {
      auto& probes = metrics::Registry::global().counter(
          options_.metric_prefix + metric::kServerBreakerProbes);
      probes.add();
      out.queries[i].probed = true;
      out.queries[i].report.stats = MatchStats{};  // results discarded
      if (outcomes[i].error == nullptr) {
        probe_passed_idx.push_back(i);
      } else {
        // Still poisoned: back to full cooldown; the batch is unaffected.
        qs.cooldown_remaining = breaker.cooldown_batches;
      }
    }
  }
  if (fatal != nullptr) {
    // Sink callbacks other queries already made cannot be retracted — the
    // same caveat as the single-query commit protocol (docs/ROBUSTNESS.md).
    rollback();
    std::rethrow_exception(fatal);
  }

  // Re-join staging for passed probes. Exact catch-up replays the missed
  // committed batches on a shadow graph (sink delivery included), then the
  // re-joining query matches THIS batch on the live graph so it re-enters
  // the commit it re-joins in. Overflowed debt (or durability off, or a WAL
  // that no longer covers the debt) re-baselines post-commit instead.
  struct StagedRejoin {
    std::size_t index = 0;
    QueryHealth health;      // post-transition value (as of the previous batch)
    QueryCounters missed;    // catch-up correction folded into the commit
  };
  std::vector<StagedRejoin> rejoins;
  std::vector<std::size_t> rebase_idx;
  QueryCounters total_missed;
  for (const std::size_t i : probe_passed_idx) {
    QueryState& qs = *states_[i];
    const QueryHealth& h = registry_.find(qs.id)->health;
    // Pipelined: the re-joined subscriber's catch-up embeddings go through
    // the deferred buffer like everything else in this batch.
    const MatchSink* rejoin_sink = nullptr;
    if (ctx != nullptr) {
      if (wrapped[i]) rejoin_sink = &wrapped[i];
    } else if (qs.sink) {
      rejoin_sink = &qs.sink;
    }
    QueryCounters missed;
    if (h.debt_overflow || !options_.durability.enabled() ||
        !replay_missed_batches(qs, h, &missed, rejoin_sink)) {
      rebase_idx.push_back(i);
      continue;
    }
    StagedRejoin staged;
    staged.index = i;
    staged.health = h;
    staged.health.state = HealthState::kHealthy;
    staged.health.debt_overflow = false;
    staged.health.counters += missed;
    staged.health.last_applied_seq = cumulative_.last_seq;
    staged.missed = missed;
    total_missed += missed;
    rejoins.push_back(std::move(staged));
    // Participate in this batch: deterministic host re-match, sink on.
    const FaultSuspendGuard suspend(faults_);
    QueryReport& q = out.queries[i];
    q.report.stats = MatchStats{};
    gpusim::TrafficCounters qcounters;
    HostPolicy policy(graph_);
    phase_match(EngineKind::kCpu, *qs.engine, graph_, use, policy,
                qcounters, rejoin_sink, options_.sim, *qs.metrics, q.report);
    q.report.traffic = qcounters.snapshot();
  }

  // Phase 5: reorganize once.
  phase_reorg(graph_, options_.check_invariants, options_.sim, metrics_,
              shared);
  shared.traffic = device_.counters().snapshot();

  // The shared budget heals on clean streaks, exactly like the Pipeline.
  if (!out.cache_dropped) budget_.heal(shared.retries == 0);
  shared.degradation_level = budget_.level();
  shared.effective_cache_budget = budget_.effective();
  if (faults_ != nullptr) {
    shared.faults_observed = faults_->fired_count() - faults_before;
  }
  for (const QueryReport& q : out.queries) shared.stats += q.report.stats;

  // Health transitions ride the batch's commit unit, BEFORE its marker at
  // the same seq — re-joins first, then trips, each carrying the full
  // post-transition table (absolute, ascending ids) and the post-transition
  // aggregate as of the PREVIOUS batch (a re-join's folds in the catch-up
  // correction replay cannot recompute). The marker never lands without
  // them: one fsync makes the unit durable, or the batch fails.
  const bool durable = options_.durability.enabled() && !replaying_;
  std::uint64_t pending_revision = registry_.health_revision();
  std::vector<std::string> transitions;
  if (durable && (!rejoins.empty() || !tripped_idx.empty())) {
    std::map<QueryId, QueryHealth> working;
    for (const RegisteredQuery& e : registry_.entries()) {
      working.emplace(e.id, e.health);
    }
    durable::DurableCounters staged_aggregate = cumulative_;
    auto log_transition = [&](HealthTransition::Reason reason, QueryId id) {
      HealthTransition t;
      t.reason = reason;
      t.revision = ++pending_revision;
      t.query = id;
      t.aggregate = staged_aggregate;
      t.table.assign(working.begin(), working.end());
      transitions.push_back(encode_transition(t));
    };
    for (const StagedRejoin& r : rejoins) {
      working[states_[r.index]->id] = r.health;
      staged_aggregate.cum_signed += r.missed.signed_embeddings;
      staged_aggregate.cum_positive += r.missed.positive;
      staged_aggregate.cum_negative += r.missed.negative;
      log_transition(HealthTransition::Reason::kRejoin, states_[r.index]->id);
    }
    for (const std::size_t i : tripped_idx) {
      QueryHealth& h = working[states_[i]->id];
      h.state = HealthState::kQuarantined;
      h.trips += 1;
      // The position stays frozen where the query last participated.
      log_transition(HealthTransition::Reason::kTrip, states_[i]->id);
    }
  }

  // Commit ONE unit, ONE batch record regardless of query count and ONE
  // marker carrying the aggregate counters across queries — quarantined
  // tenants contribute nothing, re-joining ones contribute their batch
  // delta plus the folded catch-up correction, so the aggregate stays the
  // sum of what every query durably observed.
  MatchStats committed = shared.stats;
  committed += MatchStats{total_missed.signed_embeddings,
                          total_missed.positive, total_missed.negative, 0};
  shared.wal_seq =
      commit_transaction(durability_, cumulative_, committed,
                         durable ? &use : nullptr, rollback,
                         std::move(transitions));
  metrics_.record_batch(shared);

  // The batch is committed: apply the staged breaker effects. Position
  // bookkeeping uses the WAL seq (replay position under recovery, batch
  // ordinal without durability).
  const std::uint64_t pos_seq =
      replaying_ ? replay_seq_ : current_position();
  registry_.set_health_revision(pending_revision);
  for (std::size_t i = 0; i < n; ++i) {
    if (roles[i] != MatchRole::kMatch || outcomes[i].error != nullptr) {
      continue;
    }
    QueryHealth& h = registry_.find_mutable(states_[i]->id)->health;
    h.counters += to_query_counters(out.queries[i].report.stats);
    h.last_applied_seq = pos_seq;
    states_[i]->metrics->record_batch(out.queries[i].report);
  }
  for (const StagedRejoin& r : rejoins) {
    QueryState& qs = *states_[r.index];
    QueryHealth& h = registry_.find_mutable(qs.id)->health;
    h = r.health;
    h.counters += to_query_counters(out.queries[r.index].report.stats);
    h.last_applied_seq = pos_seq;
    qs.metrics->record_batch(out.queries[r.index].report);
    qs.consecutive_failures = 0;
    qs.cooldown_remaining = 0;
    out.queries[r.index].rejoined = true;
    metrics::Registry::global()
        .counter(options_.metric_prefix + metric::kServerBreakerRejoins)
        .add();
  }
  for (const std::size_t i : tripped_idx) {
    QueryState& qs = *states_[i];
    QueryHealth& h = registry_.find_mutable(qs.id)->health;
    h.state = HealthState::kQuarantined;
    h.trips += 1;
    qs.cooldown_remaining = breaker.cooldown_batches;
    out.queries[i].tripped = true;
    metrics::Registry::global()
        .counter(options_.metric_prefix + metric::kServerBreakerTrips)
        .add();
  }

  // Re-baselines run post-commit on the live graph: a full static recount
  // replaces the query's counters outright (no sink — a re-baselined
  // subscriber missed its outage window by definition, which is exactly
  // why the debt window bounds the exact path). The commit marker above
  // deliberately carries no correction for them: the aggregate tracks what
  // was durably observed batch-by-batch, and a recount is not a batch
  // delta (the asymmetry is documented in docs/MULTI_QUERY.md).
  for (const std::size_t i : rebase_idx) {
    QueryState& qs = *states_[i];
    const FaultSuspendGuard suspend(faults_);
    gpusim::TrafficCounters scratch;
    HostPolicy policy(graph_);
    const MatchStats full = qs.engine->match_full(graph_, policy, scratch);
    QueryHealth& h = registry_.find_mutable(qs.id)->health;
    h.state = HealthState::kHealthy;
    h.debt_overflow = false;
    h.counters =
        QueryCounters{static_cast<std::int64_t>(full.positive),
                      full.positive, 0, full.seeds};
    h.last_applied_seq = pos_seq;
    qs.consecutive_failures = 0;
    qs.cooldown_remaining = 0;
    out.queries[i].rejoined = true;
    out.queries[i].rebaselined = true;
    metrics::Registry::global()
        .counter(options_.metric_prefix + metric::kServerBreakerRejoins)
        .add();
    metrics::Registry::global()
        .counter(options_.metric_prefix + metric::kServerCatchupRebaselines)
        .add();
  }

  if (!replaying_) {
    // Quarantine housekeeping: cooldowns tick on committed batches the
    // query sat out (a fresh trip or a failed probe starts a full window);
    // debt that outgrew the window overflows, which lifts the snapshot
    // deferral and downgrades the eventual re-join to a re-baseline.
    for (std::size_t i = 0; i < n; ++i) {
      QueryHealth& h = registry_.find_mutable(states_[i]->id)->health;
      if (h.state != HealthState::kQuarantined) continue;
      if (roles[i] == MatchRole::kSkip &&
          states_[i]->cooldown_remaining > 0) {
        --states_[i]->cooldown_remaining;
      }
      if (!h.debt_overflow &&
          current_position() - h.last_applied_seq > breaker.max_debt_batches) {
        h.debt_overflow = true;
      }
    }
    refresh_breaker_gauges();
  }

  if (durable) {
    // Durable tail: the registry image (per-query health + counters + the
    // aggregate anchor) is rewritten after EVERY commit, and the snapshot
    // is taken when the interval is due.
    if (checkpoint_due()) {
      checkpoint();
    } else {
      write_registry_image();
    }
  }
  return out;
}

bool MultiQueryEngine::checkpoint_due() {
  if (!durability_.snapshot_due()) return false;
  if (!any_exact_catchup_debt()) return true;
  // Deferred: the WAL must keep the batches a quarantined query still owes.
  metrics::Registry::global()
      .counter(options_.metric_prefix +
               metric::kServerCatchupDeferredSnapshots)
      .add();
  return false;
}

void MultiQueryEngine::checkpoint() {
  // The snapshot is attempted only when the image write succeeded — a
  // snapshot past a stale image would advance the graph beyond per-query
  // counters the image can still account for.
  if (write_registry_image()) durability_.maybe_snapshot(graph_, cumulative_);
}

void MultiQueryEngine::process_stream(const std::vector<EdgeBatch>& batches,
                                      const BatchReportSink& on_batch) {
  auto& overlap_batches = metrics::Registry::global().counter(
      options_.metric_prefix + metric::kPipelineOverlapBatches);
  PipelineCtx::Front fronts[2];
  PipelineCtx::Front* front = &fronts[0];
  PipelineCtx::Front* next_front = &fronts[1];
  std::vector<std::vector<PipelineCtx::SinkRecord>> buffers;

  for (std::size_t k = 0; k < batches.size(); ++k) {
    PipelineCtx ctx;
    ctx.front = front->valid ? front : nullptr;
    ctx.next_batch = k + 1 < batches.size() ? &batches[k + 1] : nullptr;
    ctx.next_front = next_front;
    *next_front = PipelineCtx::Front{};
    buffers.assign(states_.size(), {});
    ctx.buffers = &buffers;
    ServerBatchReport report = process_batch_inner(batches[k], &ctx);
    std::swap(front, next_front);
    overlap_batches.add();

    // The batch has committed: its sinks first, then its report — the
    // serial per-batch order.
    for (std::size_t i = 0; i < buffers.size() && i < states_.size(); ++i) {
      const MatchSink& sink = states_[i]->sink;
      if (!sink) continue;
      for (const PipelineCtx::SinkRecord& r : buffers[i]) {
        sink(*r.plan, std::span<const VertexId>(r.bindings), r.sign);
      }
    }
    if (on_batch) on_batch(std::move(report));
  }
}

std::uint64_t MultiQueryEngine::count_current_embeddings(QueryId id) {
  QueryState* qs = state_for(id);
  if (qs == nullptr) {
    throw Error(ErrorCode::kConfig,
                "unknown query id " + std::to_string(id));
  }
  const FaultSuspendGuard suspend(faults_);
  gpusim::TrafficCounters scratch;
  HostPolicy policy(graph_);
  return qs->engine->match_full(graph_, policy, scratch).positive;
}

}  // namespace gcsm::server
