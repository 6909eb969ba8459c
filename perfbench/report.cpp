#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/stats.hpp"

namespace perfbench {
namespace {

double median(std::vector<double> v) { return gcsm::percentile(std::move(v), 50.0); }

// The readings of `name` over the batches that carry it.
std::vector<double> samples(const std::vector<BatchResult>& results,
                            const std::string& name) {
  std::vector<double> v;
  for (const BatchResult& r : results) {
    const auto it = r.layers.find(name);
    if (it != r.layers.end()) v.push_back(it->second);
  }
  return v;
}

double total(const std::vector<BatchResult>& results, const std::string& name) {
  double s = 0.0;
  for (const double x : samples(results, name)) s += x;
  return s;
}

// Registry series named `name` in any metric scope ("q3.", "shard0.", ...).
bool in_scope(const std::string& series, const std::string& name) {
  return series == name ||
         (series.size() > name.size() &&
          series.compare(series.size() - name.size(), name.size(), name) == 0 &&
          series[series.size() - name.size() - 1] == '.');
}

double registry_total(const gcsm::metrics::Snapshot& snap,
                      const std::string& name) {
  double s = 0.0;
  for (const auto& [series, value] : snap.counters) {
    if (in_scope(series, name)) s += static_cast<double>(value);
  }
  return s;
}

// Milliseconds of self time per layer. The library's spans are RAII scopes,
// so they nest strictly per thread: a span's self time is its duration
// minus that of the spans directly inside it. The benchmark's own
// "perfbench.batch" spans (the caller's view of a batch) are matched to the
// outermost library spans on the same thread by midpoint, since a stream
// callback gap is measured on a different clock read than the engine's.
std::map<std::string, double> self_times(
    const std::vector<gcsm::trace::TraceEvent>& all) {
  using Event = gcsm::trace::TraceEvent;
  std::vector<Event> lib;
  std::vector<Event> calls;
  for (const Event& ev : all) {
    if (ev.category != "perfbench") {
      lib.push_back(ev);
    } else if (ev.name == "perfbench.batch") {
      calls.push_back(ev);
    }
  }
  std::sort(lib.begin(), lib.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  auto end_of = [](const Event& e) { return e.ts_us + e.dur_us; };
  std::vector<double> child(lib.size(), 0.0);
  std::vector<const Event*> roots;
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const Event& ev = lib[i];
    while (!open.empty() && (lib[open.back()].tid != ev.tid ||
                             end_of(lib[open.back()]) <= ev.ts_us)) {
      open.pop_back();
    }
    if (!open.empty() && end_of(ev) <= end_of(lib[open.back()])) {
      child[open.back()] += ev.dur_us;
    } else {
      roots.push_back(&ev);
    }
    open.push_back(i);
  }
  auto layer_of = [](const std::string& name) -> std::string {
    auto is = [&](const char* s) { return in_scope(name, s); };
    if (is("pipeline.update") || is("pipeline.reorg")) return "graph";
    if (is("pipeline.estimate")) return "estimate";
    if (is("pipeline.pack") || is("cache.build")) return "pack";
    if (is("pipeline.match")) return "match";
    if (is("pipeline.batch")) return "batch";
    return "other";
  };
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    out[layer_of(lib[i].name)] += std::max(0.0, lib[i].dur_us - child[i]) / 1e3;
  }
  for (const Event& call : calls) {
    double inside = 0.0;
    for (const Event* r : roots) {
      const double mid = r->ts_us + r->dur_us / 2;
      if (r->tid == call.tid && mid >= call.ts_us && mid <= end_of(call)) {
        inside += r->dur_us;
      }
    }
    out["call"] += std::max(0.0, call.dur_us - inside) / 1e3;
  }
  return out;
}

}  // namespace

std::uint64_t digest_step(std::uint64_t h, const BatchResult& result) {
  auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(result.deltas.size());
  for (const std::int64_t d : result.deltas) mix(static_cast<std::uint64_t>(d));
  return h;
}

std::uint64_t count_digest(const std::vector<BatchResult>& results) {
  std::uint64_t h = kDigestSeed;
  for (const BatchResult& r : results) h = digest_step(h, r);
  return h;
}

double sim_batch_ms(const std::vector<BatchResult>& results) {
  double s = 0.0;
  for (const BatchResult& r : results) s += r.sim_ms;
  return results.empty() ? 0.0 : s / static_cast<double>(results.size());
}

double edges_per_s(const PassRecord& pass) {
  double edges = 0.0;
  for (const BatchResult& r : pass.results) edges += static_cast<double>(r.edges);
  return pass.stream_s > 0.0 ? edges / pass.stream_s : 0.0;
}

namespace {

std::vector<double> latencies(const PassRecord& pass) {
  std::vector<double> v;
  for (const BatchResult& r : pass.results) v.push_back(r.latency_ms);
  return v;
}

// Time to make a subscription live: the durable register_query calls of
// the timed stream when the workload churns, otherwise each set-up's mean
// registration plus initial count per query (the queries differ too much
// in size for a median over single calls to be stable).
std::vector<double> register_calls(const PassRecord& pass) {
  std::vector<double> v = samples(pass.results, "server.register_ms");
  if (!v.empty()) return v;
  for (const SetupTiming& s : pass.setups) v.push_back(s.live_ms());
  return v;
}

}  // namespace

Metrics end_to_end(const PassRecord& pass, double peak_rss_mb) {
  std::vector<double> setup_s;
  for (const SetupTiming& s : pass.setups) setup_s.push_back(s.total_s());
  const std::vector<double> lat = latencies(pass);
  return {
      {"setup_s", median(setup_s), "s"},
      {"edges_per_s", edges_per_s(pass), "1/s"},
      {"batch_p50_ms", gcsm::percentile(lat, 50.0), "ms"},
      {"batch_p90_ms", gcsm::percentile(lat, 90.0), "ms"},
      {"sim_batch_ms", sim_batch_ms(pass.results), "ms"},
      {"register_p50_ms", median(register_calls(pass)), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

Metrics per_layer(const PassRecord& traced, const PassRecord& untraced,
                  const gcsm::metrics::Snapshot& registry,
                  const std::vector<gcsm::trace::TraceEvent>& events) {
  const std::vector<BatchResult>& rs = traced.results;
  const double n = std::max<double>(1.0, static_cast<double>(rs.size()));
  auto med = [&](const char* name) { return median(samples(rs, name)); };
  auto mean = [&](const char* name) { return total(rs, name) / n; };
  auto reg = [&](const char* name) { return registry_total(registry, name) / n; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  const gcsm::metrics::HistogramSummary* fsync =
      registry.histogram("wal.fsync_ms");
  const SetupTiming setup =
      traced.setups.empty() ? SetupTiming{} : traced.setups.back();
  std::map<std::string, double> self = self_times(events);
  const double hits = total(rs, "match.cache_hits");
  const double misses = total(rs, "match.cache_misses");
  const std::vector<double> lat_traced = latencies(traced);
  const std::vector<double> lat_plain = latencies(untraced);
  double max_level = 0.0;
  for (const double x : samples(rs, "recovery.degradation_level")) {
    max_level = std::max(max_level, x);
  }
  double traced_ms = 0.0;
  for (const double x : lat_traced) traced_ms += x;

  return {
      {"graph.update_ms", med("graph.update_ms"), "ms"},
      {"graph.reorg_ms", med("graph.reorg_ms"), "ms"},
      {"graph.reorg_lists", reg("graph.reorg.lists"), "count/batch"},
      {"graph.edges_inserted", reg("graph.edges_inserted"), "count/batch"},
      {"graph.edges_tombstoned", reg("graph.edges_tombstoned"), "count/batch"},
      {"graph.quarantined", total(rs, "graph.quarantined"), "count"},

      {"estimate.wall_ms", med("estimate.wall_ms"), "ms"},
      {"estimate.sim_ms", mean("estimate.sim_ms"), "ms"},
      {"estimate.walks", reg("estimator.walks"), "count/batch"},
      {"estimate.nodes_visited", reg("estimator.nodes_visited"), "count/batch"},
      {"estimate.ops", reg("estimator.ops"), "count/batch"},

      {"pack.wall_ms", med("pack.wall_ms"), "ms"},
      {"pack.sim_ms", mean("pack.sim_ms"), "ms"},
      {"pack.cached_vertices", mean("pack.cached_vertices"), "count"},
      {"pack.blob_kb", mean("pack.blob_kb"), "KiB"},
      {"pack.dma_kb", reg("device.dma.bytes") / 1024.0, "KiB/batch"},

      {"match.wall_ms", med("match.wall_ms"), "ms"},
      {"match.query_max_ms", med("match.query_max_ms"), "ms"},
      {"match.sim_ms", mean("match.sim_ms"), "ms"},
      {"match.sim_compute_ms", mean("match.sim_compute_ms"), "ms"},
      {"match.sim_zero_copy_ms", mean("match.sim_zero_copy_ms"), "ms"},
      {"match.seeds", mean("match.seeds"), "count/batch"},
      {"match.deltas", mean("match.deltas"), "count/batch"},
      {"match.compute_ops", mean("match.compute_ops"), "count/batch"},
      {"match.ops_per_delta",
       ratio(total(rs, "match.compute_ops"), total(rs, "match.deltas")),
       "ops/delta"},
      {"match.kernel_launches", reg("kernel.launches"), "count/batch"},
      {"match.steal_chunks", reg("kernel.steal_chunks"), "count/batch"},
      {"match.cache_hits", hits / n, "count/batch"},
      {"match.cache_misses", misses / n, "count/batch"},
      {"match.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"match.zero_copy_mb", mean("match.zero_copy_mb"), "MB/batch"},
      {"match.device_mb", mean("match.device_mb"), "MB/batch"},

      {"recovery.retries", total(rs, "recovery.retries"), "count"},
      {"recovery.cpu_fallbacks", total(rs, "recovery.cpu_fallbacks"), "count"},
      {"recovery.degradation_level", max_level, "level"},

      {"durability.wal_records", reg("wal.records"), "count/batch"},
      {"durability.wal_kb", reg("wal.bytes") / 1024.0, "KiB/batch"},
      {"durability.fsyncs", reg("wal.fsyncs"), "count/batch"},
      {"durability.fsync_p50_ms", fsync != nullptr ? fsync->p50 : 0.0, "ms"},
      {"durability.snapshot_writes", reg("snapshot.writes"), "count/batch"},
      {"durability.snapshot_mb", reg("snapshot.bytes") / 1e6, "MB/batch"},
      {"durability.compactions", reg("wal.compactions"), "count/batch"},

      {"server.register_ms", med("server.register_ms"), "ms"},
      {"server.unregister_ms", med("server.unregister_ms"), "ms"},
      {"server.overhead_ms", med("server.overhead_ms"), "ms"},
      {"server.fanout_imbalance", med("server.fanout_imbalance"), "ratio"},

      {"metrics.series",
       static_cast<double>(registry.counters.size() + registry.gauges.size() +
                           registry.histograms.size()),
       "count"},
      {"metrics.snapshot_ms", median(traced.snapshot_ms), "ms"},

      {"shard.stitch_ms", med("shard.stitch_ms"), "ms"},
      {"shard.stitch_share", ratio(total(rs, "shard.stitch_ms"), traced_ms),
       "ratio"},
      {"shard.routed_joins", mean("shard.routed_joins"), "count/batch"},
      {"shard.stitch_candidates", mean("shard.stitch_candidates"),
       "count/batch"},
      {"shard.supersteps", mean("shard.supersteps"), "count"},
      {"shard.cut_edges", mean("shard.cut_edges"), "count"},
      {"shard.imbalance", mean("shard.imbalance"), "ratio"},
      {"shard.max_cache_kb", mean("shard.max_cache_kb"), "KiB"},

      {"setup.construct_ms", setup.construct_ms, "ms"},
      {"setup.register_ms", setup.register_ms, "ms"},
      {"setup.initial_count_ms", setup.count_ms, "ms"},

      {"trace.graph_self_ms", self["graph"] / n, "ms/batch"},
      {"trace.estimate_self_ms", self["estimate"] / n, "ms/batch"},
      {"trace.pack_self_ms", self["pack"] / n, "ms/batch"},
      {"trace.match_self_ms", self["match"] / n, "ms/batch"},
      {"trace.batch_self_ms", self["batch"] / n, "ms/batch"},
      {"trace.call_self_ms", self["call"] / n, "ms/batch"},
      {"trace.spans", static_cast<double>(events.size()), "count"},
      {"trace.overhead_p50_ms",
       gcsm::percentile(lat_traced, 50.0) - gcsm::percentile(lat_plain, 50.0),
       "ms"},
      {"trace.overhead_edges_per_s", edges_per_s(traced) - edges_per_s(untraced),
       "1/s"},
  };
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "{\"value\": %.17g, \"unit\": \"", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": " + buf +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
