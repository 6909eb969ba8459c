// Turning one workload pass into named metrics: end-to-end figures from the
// caller clock and the batch results, per-layer figures from the batch
// reports, the metrics registry and the trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// One pass: the set-ups made, then the timed stream.
struct PassRecord {
  std::vector<SetupTiming> setups;
  std::vector<BatchResult> results;
  double stream_s = 0.0;  // caller clock over the whole stream
  std::size_t registry_calls = 0;
  std::vector<double> snapshot_ms;  // traced pass: one registry snapshot a batch
};

// FNV-1a over every batch's signed deltas, in order; digest_step folds in
// one batch, starting from kDigestSeed.
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;
std::uint64_t digest_step(std::uint64_t h, const BatchResult& result);
std::uint64_t count_digest(const std::vector<BatchResult>& results);
double sim_batch_ms(const std::vector<BatchResult>& results);
double edges_per_s(const PassRecord& pass);

Metrics end_to_end(const PassRecord& pass, double peak_rss_mb);

// `registry` holds the registry after the traced stream, reset at its start.
Metrics per_layer(const PassRecord& traced, const PassRecord& untraced,
                  const gcsm::metrics::Snapshot& registry,
                  const std::vector<gcsm::trace::TraceEvent>& events);

// The benchmark's last output line.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

}  // namespace perfbench
