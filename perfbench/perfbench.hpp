// The repository benchmark: four continuous-subgraph-matching workloads run
// through the engines' public APIs (Pipeline, server::MultiQueryEngine,
// shard::ShardedMatchEngine), timed on the benchmark's own clock.
//
// A Workload owns its generated inputs (data graph, update stream, query
// set) and drives one engine over them in a closed loop: the next batch is
// submitted only after the previous result has reached the caller. It reads
// only what the engines already return — batch reports and the metrics
// registry — and adds nothing inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Per-batch layer readings by per-layer metric name (see report.cpp).
using Reading = std::map<std::string, double>;

struct BatchResult {
  // Caller clock. Closed loop: the process_batch call. Stream: the gap
  // between consecutive result callbacks (the first one from the start of
  // the stream).
  double latency_ms = 0.0;
  // Cost-model time of the batch: estimate + pack + match + reorg.
  double sim_ms = 0.0;
  // Update edges the engine committed (submitted minus quarantined).
  std::uint64_t edges = 0;
  // Signed embedding delta of every live query, in registration order.
  std::vector<std::int64_t> deltas;
  Reading layers;
};

struct SetupTiming {
  double construct_ms = 0.0;
  // All registrations of this set-up. Pipeline takes its only query in the
  // constructor, so there the constructor counts as the registration.
  double register_ms = 0.0;
  double count_ms = 0.0;     // initial full counts M(G0)
  std::size_t subscriptions = 0;  // queries registered

  double total_s() const {
    return (construct_ms + register_ms + count_ms) / 1e3;
  }
  // Mean wall time to make one subscription live: its registration plus
  // its initial count M(G0), which a subscriber needs to turn deltas into
  // totals.
  double live_ms() const {
    return subscriptions == 0 ? 0.0
                              : (register_ms + count_ms) /
                                    static_cast<double>(subscriptions);
  }
};

// Explicit thread counts; workers x match_parallelism never exceeds the
// host's four cores, and nothing is left to hardware_concurrency.
struct ThreadConfig {
  std::size_t workers = 1;            // simulated blocks per executor
  std::size_t match_parallelism = 1;  // queries matched concurrently
  std::size_t shard_pool = 0;         // shard-task threads (sharded only)
};

// Times calls on the benchmark's clock and, while a trace collector is
// armed, records each one as a "perfbench" span around the public call.
class Spans {
 public:
  void arm(gcsm::trace::TraceCollector* collector) { collector_ = collector; }

  // Runs f and returns its wall time in milliseconds.
  template <class F>
  double time(const char* name, F&& f) {
    const double ts = collector_ != nullptr ? collector_->now_us() : 0.0;
    const Clock::time_point t0 = Clock::now();
    f();
    const double ms = ms_between(t0, Clock::now());
    record(name, ts, ms);
    return ms;
  }

  // Records an interval that was measured elsewhere and ended just now.
  void record_ending_now(const char* name, double ms) {
    if (collector_ != nullptr) record(name, collector_->now_us() - ms * 1e3, ms);
  }

 private:
  void record(const char* name, double ts_us, double ms) {
    if (collector_ != nullptr) collector_->record(name, "perfbench", ts_us, ms * 1e3);
  }

  gcsm::trace::TraceCollector* collector_ = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generator parameters, realized |V| / |E| / batch count, engine options.
  virtual std::string describe() const = 0;
  virtual ThreadConfig threads() const = 0;

  // Builds a fresh engine, registers the queries and counts M(G0) for each.
  // A previous engine is destroyed first (outside the timing).
  virtual SetupTiming setup(Spans& spans) = 0;
  // Feeds the whole update stream through the engine set up last, handing
  // each batch's result to `on_result` when it reaches the caller.
  virtual void run(Spans& spans,
                   const std::function<void(BatchResult&&)>& on_result) = 0;
  // Registry calls the last run() made (churn only).
  virtual std::size_t registry_calls() const { return 0; }
  // Telescoping gate over the last run: for every query,
  // M(G_end) - M(G_start) == sum of its signed deltas. Counts the end state
  // (outside any timed window) and returns one message per failing query.
  virtual std::vector<std::string> check(
      Spans& spans, const std::vector<BatchResult>& results) = 0;
  // Destroys the engine and its durable files.
  virtual void teardown() = 0;
};

const std::vector<std::string>& workload_names();

// Builds the inputs of `name` from `seed`. `work_dir` is a directory the
// workload may create files under (the WAL of durable workloads).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

}  // namespace perfbench
