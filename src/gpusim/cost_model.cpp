#include "gpusim/cost_model.hpp"

namespace gcsm::gpusim {

Traffic& Traffic::operator+=(const Traffic& o) {
  device_bytes += o.device_bytes;
  zero_copy_lines += o.zero_copy_lines;
  zero_copy_bytes += o.zero_copy_bytes;
  dma_calls += o.dma_calls;
  dma_bytes += o.dma_bytes;
  um_faults += o.um_faults;
  um_hits += o.um_hits;
  compute_ops += o.compute_ops;
  host_ops += o.host_ops;
  host_bytes += o.host_bytes;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  return *this;
}

Traffic Traffic::operator+(const Traffic& o) const {
  Traffic r = *this;
  r += o;
  return r;
}

std::uint64_t Traffic::cpu_access_bytes(const SimParams& p) const {
  return zero_copy_lines * p.zero_copy_line_bytes + dma_bytes +
         um_faults * p.um_page_bytes;
}

void TrafficCounters::reset() {
  device_bytes_.store(0, mo);
  zero_copy_lines_.store(0, mo);
  zero_copy_bytes_.store(0, mo);
  dma_calls_.store(0, mo);
  dma_bytes_.store(0, mo);
  um_faults_.store(0, mo);
  um_hits_.store(0, mo);
  compute_ops_.store(0, mo);
  host_ops_.store(0, mo);
  host_bytes_.store(0, mo);
  cache_hits_.store(0, mo);
  cache_misses_.store(0, mo);
}

Traffic TrafficCounters::snapshot() const {
  Traffic t;
  t.device_bytes = device_bytes_.load(mo);
  t.zero_copy_lines = zero_copy_lines_.load(mo);
  t.zero_copy_bytes = zero_copy_bytes_.load(mo);
  t.dma_calls = dma_calls_.load(mo);
  t.dma_bytes = dma_bytes_.load(mo);
  t.um_faults = um_faults_.load(mo);
  t.um_hits = um_hits_.load(mo);
  t.compute_ops = compute_ops_.load(mo);
  t.host_ops = host_ops_.load(mo);
  t.host_bytes = host_bytes_.load(mo);
  t.cache_hits = cache_hits_.load(mo);
  t.cache_misses = cache_misses_.load(mo);
  return t;
}

void TrafficCounters::add(const Traffic& t) {
  device_bytes_.fetch_add(t.device_bytes, mo);
  zero_copy_lines_.fetch_add(t.zero_copy_lines, mo);
  zero_copy_bytes_.fetch_add(t.zero_copy_bytes, mo);
  dma_calls_.fetch_add(t.dma_calls, mo);
  dma_bytes_.fetch_add(t.dma_bytes, mo);
  um_faults_.fetch_add(t.um_faults, mo);
  um_hits_.fetch_add(t.um_hits, mo);
  compute_ops_.fetch_add(t.compute_ops, mo);
  host_ops_.fetch_add(t.host_ops, mo);
  host_bytes_.fetch_add(t.host_bytes, mo);
  cache_hits_.fetch_add(t.cache_hits, mo);
  cache_misses_.fetch_add(t.cache_misses, mo);
}

SimTime simulate_time(const Traffic& t, const SimParams& p) {
  constexpr double kGiga = 1e9;
  SimTime s;
  s.dma = static_cast<double>(t.dma_calls) * p.dma_latency_us * 1e-6 +
          static_cast<double>(t.dma_bytes) / (p.dma_bandwidth_gbps * kGiga);
  s.zero_copy = static_cast<double>(t.zero_copy_lines) *
                static_cast<double>(p.zero_copy_line_bytes) /
                (p.zero_copy_bandwidth_gbps * kGiga);
  s.um = static_cast<double>(t.um_faults) *
             (p.um_fault_overhead_us * 1e-6 +
              static_cast<double>(p.um_page_bytes) /
                  (p.um_bandwidth_gbps * kGiga));
  s.device_mem = static_cast<double>(t.device_bytes) /
                 (p.device_bandwidth_gbps * kGiga);
  s.compute = static_cast<double>(t.compute_ops) / p.device_ops_per_sec;
  const double host_compute =
      static_cast<double>(t.host_ops) /
      (p.host_ops_per_sec_per_thread * static_cast<double>(p.host_threads));
  const double host_mem = static_cast<double>(t.host_bytes) /
                          (p.host_mem_bandwidth_gbps * kGiga);
  s.host = host_compute > host_mem ? host_compute : host_mem;
  return s;
}

}  // namespace gcsm::gpusim
