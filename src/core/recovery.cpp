#include "core/recovery.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "gpusim/device.hpp"
#include "util/error.hpp"

namespace gcsm {

RetryLadder::RetryLadder(const RecoveryOptions& options, bool escalated)
    : options_(&options),
      attempts_left_(std::max(1, options.max_attempts)),
      backoff_ms_(options.backoff_initial_ms),
      escalated_(escalated) {}

std::optional<double> RetryLadder::step() {
  if (--attempts_left_ <= 0) {
    if (escalated_ || !options_->cpu_fallback) return std::nullopt;
    escalated_ = true;
    fell_back_ = true;
    attempts_left_ = std::max(1, options_->max_cpu_attempts);
  }
  const double delay = std::max(0.0, backoff_ms_);
  if (delay > 0.0) {
    backoff_ms_ = std::min(delay * options_->backoff_multiplier,
                           options_->backoff_max_ms);
  }
  return delay;
}

BudgetLadder::BudgetLadder(std::uint64_t configured_bytes,
                           const RecoveryOptions& options)
    : configured_(configured_bytes),
      // The floor bounds degradation only: it never raises a budget
      // configured below it.
      floor_(std::min(options.min_cache_budget_bytes, configured_bytes)),
      heal_after_(std::max(1, options.heal_after_clean_batches)) {}

std::uint64_t BudgetLadder::effective() const {
  return std::max(configured_ >> level_, floor_);
}

bool BudgetLadder::degrade(const PipelineMetrics& pm) {
  if (effective() <= floor_) return false;
  ++level_;
  clean_streak_ = 0;
  pm.note_degradation();
  return true;
}

void BudgetLadder::heal(bool clean) {
  if (level_ == 0) return;
  if (!clean) {
    clean_streak_ = 0;
  } else if (++clean_streak_ >= heal_after_) {
    --level_;
    clean_streak_ = 0;
  }
}

void run_transaction(RetryLadder& ladder, EngineKind kind, BatchReport& report,
                     util::ParkingLot& parker,
                     const std::function<void(bool escalated)>& attempt,
                     const std::function<void()>& rollback,
                     const std::function<bool()>& degrade) {
  // Called while a failure is being handled: consumes one attempt, or
  // rethrows that failure when none is left.
  auto step = [&] {
    ++report.retries;
    const std::optional<double> delay = ladder.step();
    if (!delay) throw;
    // Interruptible parking, not a blocking sleep: the delay is bounded, but
    // teardown (or an eager caller) can cut it short, and the engine thread
    // is not held hostage by one flaky attempt.
    parker.park_for_ms(*delay);
    report.backoff_ms += *delay;
  };
  for (;;) {
    reset_attempt(report);
    try {
      attempt(ladder.escalated());
      return;
    } catch (const gpusim::DeviceOomError&) {
      rollback();
      if (kind == EngineKind::kVsgm) throw;
      if (!ladder.escalated() && degrade()) {
        ++report.retries;
      } else {
        step();
      }
    } catch (const Error& e) {
      rollback();
      if (!e.transient()) throw;
      step();
    } catch (...) {
      rollback();
      throw;
    }
  }
}

std::uint64_t commit_transaction(DurabilityManager& durability,
                                 durable::DurableCounters& cumulative,
                                 const MatchStats& delta,
                                 const EdgeBatch* logged,
                                 const std::function<void()>& rollback,
                                 std::vector<std::string> server_states) {
  durable::DurableCounters next = cumulative;
  next.batches_committed += 1;
  next.cum_signed += delta.signed_embeddings;
  next.cum_positive += delta.positive;
  next.cum_negative += delta.negative;
  std::uint64_t seq = 0;
  if (logged != nullptr) {
    try {
      seq = durability.commit_batch(*logged,
                                    {next, std::move(server_states)});
    } catch (...) {
      rollback();
      throw;
    }
    next.last_seq = seq;
  }
  cumulative = next;
  return seq;
}

EdgeBatch ingest_batch(EdgeBatch batch, FaultInjector* faults,
                       const RecoveryOptions& options,
                       const Sanitizer& sanitize,
                       QuarantineReport& quarantine) {
  if (faults != nullptr) inject_batch_corruption(batch, faults);
  if (!options.sanitize_batches) return batch;
  EdgeBatch clean = sanitize(batch, quarantine);
  if (quarantine.empty()) return batch;
  return clean;
}

void reset_attempt(BatchReport& report) {
  report.stats = MatchStats{};
  report.traffic = gpusim::Traffic{};
  report.wall_update_ms = 0.0;
  report.wall_estimate_ms = 0.0;
  report.wall_pack_ms = 0.0;
  report.wall_match_ms = 0.0;
  report.wall_reorg_ms = 0.0;
  report.sim_estimate_s = 0.0;
  report.sim_pack_s = 0.0;
  report.sim_match_s = 0.0;
  report.sim_reorg_s = 0.0;
  report.cached_vertices = 0;
  report.cache_bytes = 0;
  report.walks = 0;
}

void check_replay(const RecoveredState& recovered,
                  const durable::DurableCounters& replayed) {
  if (!recovered.have_expected || replayed == recovered.expected) return;
  throw Error(ErrorCode::kRecovery,
              "recovery replay does not reproduce the committed counters "
              "(batches " +
                  std::to_string(replayed.batches_committed) + " vs " +
                  std::to_string(recovered.expected.batches_committed) +
                  ", signed " + std::to_string(replayed.cum_signed) + " vs " +
                  std::to_string(recovered.expected.cum_signed) + ")");
}

}  // namespace gcsm
