#include "util/fault.hpp"

namespace gcsm {
namespace {

// Sites outside the registry (ad-hoc test names) are armable.
bool armable(const std::string& site) {
  for (const fault_site::Info& info : fault_site::kSiteTable) {
    if (site == info.name) return info.armable;
  }
  return true;
}

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed) : rng_(seed) {}

void FaultInjector::arm(const std::string& site, FaultSpec spec) {
  const std::lock_guard<std::mutex> lock(mu_);
  specs_[site] = spec;
}

void FaultInjector::arm_all(double probability) {
  const std::lock_guard<std::mutex> lock(mu_);
  default_spec_ = FaultSpec{probability, 0};
}

void FaultInjector::disarm(const std::string& site) {
  const std::lock_guard<std::mutex> lock(mu_);
  specs_.erase(site);
}

void FaultInjector::disarm_all() {
  const std::lock_guard<std::mutex> lock(mu_);
  specs_.clear();
  default_spec_.reset();
}

void FaultInjector::set_enabled(bool on) {
  const std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

bool FaultInjector::enabled() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

const FaultSpec* FaultInjector::spec_for(const std::string& site) const {
  const auto it = specs_.find(site);
  if (it != specs_.end()) return &it->second;
  // Non-armable sites (crash.at, wal.truncate) are explicit-arm only: a
  // probabilistic arm_all sweep must never end the engine.
  if (default_spec_.has_value() && armable(site)) {
    return &*default_spec_;
  }
  return nullptr;
}

bool FaultInjector::fires(const char* site) {
  return fires_spec(site).has_value();
}

std::optional<FaultSpec> FaultInjector::fires_spec(const char* site) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return std::nullopt;
  const std::string key(site);
  const std::uint64_t hit = ++hit_counts_[key];
  const FaultSpec* spec = spec_for(key);
  if (spec == nullptr) return std::nullopt;
  const bool on_nth = spec->nth_hit != 0 && hit == spec->nth_hit;
  const bool on_draw = spec->probability > 0.0 &&
                       rng_.bernoulli(spec->probability);
  if (!on_nth && !on_draw) return std::nullopt;
  fired_.push_back({key, hit});
  return *spec;
}

bool FaultInjector::fires_for(const char* site, std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return false;
  const std::string name(site);
  const FaultSpec* spec = spec_for(name);
  if (spec != nullptr && spec->match_query_id != 0 &&
      spec->match_query_id != key) {
    // Filtered out: the probe never happened as far as determinism is
    // concerned — no hit count, no rng draw.
    return false;
  }
  const std::uint64_t hit = ++hit_counts_[name];
  if (spec == nullptr) return false;
  const bool on_nth = spec->nth_hit != 0 && hit == spec->nth_hit;
  const bool on_draw =
      spec->probability > 0.0 && rng_.bernoulli(spec->probability);
  if (!on_nth && !on_draw) return false;
  fired_.push_back({name, hit});
  return true;
}

std::uint64_t FaultInjector::hits(const std::string& site) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = hit_counts_.find(site);
  return it == hit_counts_.end() ? 0 : it->second;
}

std::uint64_t FaultInjector::fired_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fired_.size();
}

std::vector<std::string> FaultInjector::fired_sites_since(
    std::uint64_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (std::size_t i = static_cast<std::size_t>(index); i < fired_.size();
       ++i) {
    out.push_back(fired_[i].site);
  }
  return out;
}

std::vector<FaultObservation> FaultInjector::observations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

}  // namespace gcsm
