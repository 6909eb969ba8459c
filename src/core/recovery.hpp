// The transactional recovery ladder every batch engine runs
// (docs/ROBUSTNESS.md, "Transactional batches and the recovery ladder"),
// and the one step-3 commit that ends each transaction ("Commit protocol").
// Pipeline, ShardedMatchEngine and MultiQueryEngine keep only what differs:
// their attempt body, their rollback, and what escalation means (a CPU
// re-run, or dropping the cache for the multi-query shared phases). The
// RecoveryOptions knobs are read only here (gcsm_lint `ladder-copy`), and
// commit units reach the DurabilityManager only from here (`commit-copy`).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/durability.hpp"
#include "core/phases.hpp"
#include "graph/update_stream.hpp"
#include "util/parking.hpp"

namespace gcsm {

class FaultInjector;

// Attempts of one batch (or one query's match) on two rungs: the configured
// engine, then the fallback it escalates to once. Backoff is returned as a
// delay, so synchronous engines park while the multi-query fan-out keeps a
// retrying query in its ready-at queue.
class RetryLadder {
 public:
  // `escalated`: the engine already runs on the fallback rung (a CPU
  // engine), so running out of attempts gives up.
  RetryLadder(const RecoveryOptions& options, bool escalated);

  // Records one failed attempt. Returns the delay in milliseconds (0 = none)
  // to wait before the next attempt, or nullopt when none is left and the
  // caller gives up. Running out on the first rung escalates instead, when
  // cpu_fallback allows, with max_cpu_attempts more.
  std::optional<double> step();

  // The next attempt runs on the fallback rung.
  bool escalated() const { return escalated_; }
  // step() escalated; a ladder that started escalated never falls back.
  bool fell_back() const { return fell_back_; }

 private:
  const RecoveryOptions* options_;
  int attempts_left_;
  double backoff_ms_;
  bool escalated_;
  bool fell_back_ = false;
};

// The device-OOM degradation ladder of one cache budget: each OOM halves the
// effective budget down to min_cache_budget_bytes (or the configured budget,
// when that is smaller), and every heal_after_clean_batches clean batches in
// a row double it back one step.
class BudgetLadder {
 public:
  BudgetLadder(std::uint64_t configured_bytes, const RecoveryOptions& options);

  std::uint64_t configured() const { return configured_; }
  std::uint32_t level() const { return level_; }
  // The configured budget halved level() times, floored.
  std::uint64_t effective() const;
  // One halving, noted in `pm`; false, and no change, when the budget is at
  // the floor.
  bool degrade(const PipelineMetrics& pm);
  // Ends a batch that ran on the device. A clean batch (no retries) extends
  // the streak and may heal one level; any other restarts it, including the
  // batch that shrank.
  void heal(bool clean);

 private:
  std::uint64_t configured_;
  std::uint64_t floor_;
  int heal_after_;
  std::uint32_t level_ = 0;
  int clean_streak_ = 0;
};

// Runs one batch's attempts until one returns. `attempt(escalated)` runs the
// batch once, on the fallback rung when `escalated`, starting from a report
// whose phase outputs reset_attempt cleared. A failed attempt is rolled back
// first, then classified:
//   device OOM      -> rethrown for VSGM (its k-hop residency is semantic);
//                      on the first rung `degrade()` may shrink a budget,
//                      which costs a retry but no attempt; otherwise a step;
//   transient Error -> a step;
//   anything else   -> rethrown (the graph is consistent, but retrying an
//                      unclassified failure would not help).
// A step counts a retry, waits its delay on `parker` (adding it to
// report.backoff_ms), and rethrows the failure once the ladder is exhausted.
void run_transaction(RetryLadder& ladder, EngineKind kind, BatchReport& report,
                     util::ParkingLot& parker,
                     const std::function<void(bool escalated)>& attempt,
                     const std::function<void()>& rollback,
                     const std::function<bool()>& degrade);

// Step 3 of the commit protocol: advances `cumulative` by one batch whose
// embeddings changed by `delta`. A batch logged under `wal_seq` (0 = not
// logged) first makes its commit unit durable — `server_states`, then the
// marker carrying the advanced counters — through
// DurabilityManager::commit_batch. When that fails, the batch is rolled
// back and the failure rethrown with `cumulative` unchanged: memory agrees
// with disk and the client re-submits. (Sink callbacks already made cannot be
// retracted — see docs/ROBUSTNESS.md.)
void commit_transaction(DurabilityManager& durability,
                        durable::DurableCounters& cumulative,
                        const MatchStats& delta, std::uint64_t wal_seq,
                        const std::function<void()>& rollback,
                        std::vector<std::string> server_states = {});

// Screens a batch against the engine's live graph, quarantining malformed
// records (sanitize_batch, or the sharded engine's owner-answered twin).
using Sanitizer =
    std::function<EdgeBatch(const EdgeBatch&, QuarantineReport&)>;

// Ingestion: the batch.corrupt fault site, then `sanitize` when
// sanitize_batches is on. Returns the batch to run, which is `batch`
// unchanged when nothing fired and nothing was quarantined.
EdgeBatch ingest_batch(EdgeBatch batch, FaultInjector* faults,
                       const RecoveryOptions& options,
                       const Sanitizer& sanitize,
                       QuarantineReport& quarantine);

// Clears what one attempt produces (stats, traffic, phase times, cache and
// walk diagnostics) and keeps what the ladder accumulates across attempts.
void reset_attempt(BatchReport& report);

// Recovery's integrity gate: replay must reproduce the last commit marker
// exactly. Otherwise the durable state is inconsistent (e.g. a compacted WAL
// beside a corrupt snapshot) and serving it would be wrong: throws
// Error(kRecovery).
void check_replay(const RecoveredState& recovered,
                  const durable::DurableCounters& replayed);

}  // namespace gcsm
