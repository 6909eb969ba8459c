// gcsm_perfbench — runs one benchmark workload and prints its metrics.
//
//   gcsm_perfbench --workload q5-sf3k --seed 1 --seconds 15 --trace 0
//                  [--state-dir .bench_build/perfbench-state]
//
// --trace 0 sets the engine up several times (set-up time is their median;
// the last engine is kept), feeds the whole update stream through it with
// tracing off, and prints the end-to-end metrics. --trace 1 runs the same
// inputs twice, once plain and once with the benchmark's spans and the
// library's trace armed, and prints the per-layer metrics of the traced
// pass plus the tracing overhead (traced minus plain). The stream length is
// fixed per workload, so the simulated time and the count digest of a seed
// are comparable between runs; --seconds is the intended length of the
// timed stream, which the workloads are sized to.
//
// Every run ends with the telescoping correctness gate. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is 0 only when nothing failed.
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "report.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir = ".bench_build/perfbench-state";
};

// Accepts "--key value" and "--key=value".
Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::invalid_argument("unexpected " + a);
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      throw std::invalid_argument("missing value for --" + a);
    }
  }
  Args args;
  for (const auto& [k, v] : kv) {
    if (k == "workload") {
      args.workload = v;
    } else if (k == "seed") {
      args.seed = std::stoull(v);
    } else if (k == "seconds") {
      args.seconds = std::stod(v);
    } else if (k == "trace") {
      args.trace = std::stoi(v) != 0;
    } else if (k == "state-dir") {
      args.state_dir = v;
    } else {
      throw std::invalid_argument("unknown flag --" + k);
    }
  }
  return args;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Untraced runs set up at least kMinSetups times, and continue up to
// kMaxSetups until set-ups add up to kSetupFloorS, so quick set-ups get a
// steadier median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupFloorS = 2.0;

// One pass: at least `setups` set-ups, then the timed stream.
// `trace_registry` resets the registry before the stream and snapshots it
// after every batch.
PassRecord run_pass(Workload& w, Spans& spans, int setups,
                    bool trace_registry, const char* label) {
  PassRecord pass;
  double setup_total_s = 0.0;
  for (int i = 0; i < setups || (setups > 1 && i < kMaxSetups &&
                                 setup_total_s < kSetupFloorS);
       ++i) {
    pass.setups.push_back(w.setup(spans));
    setup_total_s += pass.setups.back().total_s();
    const SetupTiming& s = pass.setups.back();
    std::printf("%s setup %d: construct %.3f ms, register %.3f ms, initial "
                "count %.3f ms, total %.4f s\n",
                label, i, s.construct_ms, s.register_ms, s.count_ms,
                s.total_s());
  }
  if (trace_registry) gcsm::metrics::Registry::global().reset();
  std::uint64_t digest = kDigestSeed;
  const Clock::time_point t0 = Clock::now();
  w.run(spans, [&](BatchResult&& r) {
    if (trace_registry) {
      pass.snapshot_ms.push_back(spans.time("perfbench.snapshot", [] {
        (void)gcsm::metrics::Registry::global().snapshot();
      }));
    }
    digest = digest_step(digest, r);
    std::int64_t dm = 0;
    for (const std::int64_t d : r.deltas) dm += d;
    std::printf("%s batch %3zu: latency %.3f ms, sim %.4f ms, edges %" PRIu64
                ", dM %+" PRId64 ", digest %016" PRIx64 "\n",
                label, pass.results.size(), r.latency_ms, r.sim_ms, r.edges,
                dm, digest);
    pass.results.push_back(std::move(r));
  });
  pass.stream_s = ms_between(t0, Clock::now()) / 1e3;
  pass.registry_calls = w.registry_calls();
  return pass;
}

// Compares this run's sim time and count digest with the first run of the
// same inputs (workload, seed, description) in this build tree. Returns
// false on count drift.
bool check_determinism(const Args& args, const std::string& description,
                       std::size_t batches, double sim_ms,
                       std::uint64_t digest) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args.state_dir) / "determinism";
  fs::create_directories(dir);
  char key[32];
  std::snprintf(key, sizeof key, "%016zx",
                std::hash<std::string>{}(description));
  const fs::path file = dir / (args.workload + "-seed" +
                               std::to_string(args.seed) + "-" + key + ".txt");
  char line[128];
  std::snprintf(line, sizeof line, "%zu %016" PRIx64 " %.17g", batches, digest,
                sim_ms);
  std::ifstream in(file);
  std::string prev;
  if (!std::getline(in, prev)) {
    std::ofstream(file) << line << "\n";
    std::printf("determinism: first run of this seed recorded\n");
    return true;
  }
  std::size_t p_batches = 0;
  std::string p_digest;
  double p_sim = 0.0;
  std::istringstream(prev) >> p_batches >> p_digest >> p_sim;
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
  const bool counts_same = p_batches == batches && p_digest == digest_hex;
  const bool sim_same = p_sim == sim_ms;
  std::printf("determinism: count digest %s, sim_batch_ms %s (recorded %.17g, "
              "now %.17g)\n",
              counts_same ? "identical" : "DRIFT",
              sim_same ? "identical" : "DRIFT", p_sim, sim_ms);
  return counts_same;
}

void print_metrics(const Metrics& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// Arms the benchmark's spans and the library's trace for one scope; the
// collector must outlive it.
class ArmedTrace {
 public:
  ArmedTrace(Spans& spans, gcsm::trace::TraceCollector& collector)
      : spans_(spans) {
    spans_.arm(&collector);
    gcsm::trace::set_collector(&collector);
  }
  ~ArmedTrace() {
    gcsm::trace::set_collector(nullptr);
    spans_.arm(nullptr);
  }
  ArmedTrace(const ArmedTrace&) = delete;
  ArmedTrace& operator=(const ArmedTrace&) = delete;

 private:
  Spans& spans_;
};

int run(const Args& args, const std::string& work_dir) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, work_dir);
  const ThreadConfig tc = w->threads();
  std::printf("workload %s seed %" PRIu64 ": %s\n", args.workload.c_str(),
              args.seed, w->describe().c_str());
  std::printf("threads: workers %zu, match_parallelism %zu, shard_pool %zu "
              "(host reports %u)\n",
              tc.workers, tc.match_parallelism, tc.shard_pool,
              std::thread::hardware_concurrency());

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  auto tally = [&](const PassRecord& pass) {
    attempted += pass.results.size() + pass.registry_calls;
    for (const SetupTiming& s : pass.setups) {
      attempted += s.subscriptions;
    }
  };
  auto gate = [&](Spans& spans, const PassRecord& pass, const char* label) {
    const std::vector<std::string> failures = w->check(spans, pass.results);
    for (const std::string& f : failures) {
      std::printf("%s gate FAILED: %s\n", label, f.c_str());
    }
    std::printf("%s gate: telescoping identity %s; count digest %016" PRIx64
                ", sim_batch_ms %.17g\n",
                label, failures.empty() ? "holds for every query" : "BROKEN",
                count_digest(pass.results), sim_batch_ms(pass.results));
    failed += failures.size();
  };

  Spans spans;
  PassRecord measured;
  if (!args.trace) {
    measured = run_pass(*w, spans, kMinSetups, false, "run");
    tally(measured);
    gate(spans, measured, "run");
    metrics = end_to_end(measured, peak_rss_mb());
  } else {
    // The plain pass is gated through the traced one: equal count digests
    // mean equal deltas on the same inputs.
    measured = run_pass(*w, spans, 1, false, "plain");
    tally(measured);

    gcsm::trace::TraceCollector collector;
    PassRecord traced;
    gcsm::metrics::Snapshot registry;
    {
      const ArmedTrace armed(spans, collector);
      traced = run_pass(*w, spans, 1, true, "traced");
      registry = gcsm::metrics::Registry::global().snapshot();
    }
    tally(traced);
    gate(spans, traced, "traced");
    if (count_digest(traced.results) != count_digest(measured.results)) {
      std::printf("determinism: traced and plain passes DRIFT in counts\n");
      ++failed;
    }
    if (sim_batch_ms(traced.results) != sim_batch_ms(measured.results)) {
      std::printf("determinism: traced and plain passes DRIFT in sim time\n");
    }
    metrics = per_layer(traced, measured, registry, collector.events());
    const std::string trace_path = args.state_dir + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    std::ofstream(trace_path) << collector.to_chrome_json() << "\n";
    std::printf("trace (chrome://tracing format) written to %s\n",
                trace_path.c_str());
  }
  w->teardown();

  if (!check_determinism(args, w->describe(), measured.results.size(),
                         sim_batch_ms(measured.results),
                         count_digest(measured.results))) {
    ++failed;
  }
  std::printf("fail_ratio: %" PRIu64 "/%" PRIu64 "\n", failed, attempted);
  print_metrics(metrics);
  std::printf("%s\n",
              result_json(failed == 0, attempted, failed, metrics).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    bool known = false;
    for (const std::string& n : workload_names()) known = known || n == args.workload;
    if (!known) {
      std::fprintf(stderr, "unknown or missing --workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  }
  // The workload's durable files live here; removed however the run ends.
  const std::string work_dir =
      args.state_dir + "/work-" + std::to_string(getpid());
  int rc = 1;
  try {
    rc = run(args, work_dir);
  } catch (const std::exception& e) {
    // A throw from the engine is a failed operation: report it, no metrics.
    std::fprintf(stderr, "error: %s\n", e.what());
    std::printf("%s\n", result_json(false, 1, 1, {}).c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  return rc;
}
