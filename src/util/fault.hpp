// Deterministic, seeded fault injection for the pipeline's recovery paths.
//
// A FaultInjector owns a set of named fault *sites* — fixed points in the
// stack where a production system can fail: device allocation, DMA, kernel
// launch, a hung kernel, the DCSR pack, the dynamic-graph batch apply, and
// batch ingestion. Components hold a non-owning pointer (nullptr = disarmed,
// the production default) and ask `fires(site)` at each site; the injector
// decides from a per-site FaultSpec:
//
//   * probability — an independent Bernoulli draw per hit from the
//     injector's own seeded Rng, so a run is reproducible from one seed;
//   * nth_hit     — fire deterministically on exactly the nth hit of the
//     site (1-based), for tests that need a fault at a precise moment.
//
// Every firing is logged (site name + hit index), so the pipeline can report
// which faults a batch survived and tests can assert the exact fault set.
// All methods are mutex-guarded: sites are probed from the pipeline thread
// today, but nothing stops a future async stage from probing concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace gcsm {

// Canonical site names, generated from the X-macro registry
// util/fault_sites.def (the single source of truth; see the policy comment
// there). Components compare by content, not pointer, so call sites may
// also use ad-hoc names in tests — but src/ call sites must reference these
// constants, never the raw string (enforced by tools/gcsm_lint).
//
// Two sites end the engine and never fire from arm_all's default spec —
// only an explicit arm() schedules them, so probabilistic fault sweeps stay
// alive. When crash.at fires, the durable write in progress is torn at
// FaultSpec::crash_at_byte and a CrashError escapes (the in-process
// kill -9); when wal.truncate fires, a WAL cut fails and the writer refuses
// every later append.
namespace fault_site {
#define GCSM_FAULT_SITE(sym, name, armable) \
  inline constexpr const char* k##sym = name;
#include "util/fault_sites.def"
#undef GCSM_FAULT_SITE

struct Info {
  const char* name;
  bool armable;  // covered by arm_all's default spec
};

// Every registered site, in registry (name) order — for tests and tooling.
inline constexpr Info kSiteTable[] = {
#define GCSM_FAULT_SITE(sym, name, armable) {name, armable},
#include "util/fault_sites.def"
#undef GCSM_FAULT_SITE
};
}  // namespace fault_site

// Every site covered by arm_all (crash.at and wal.truncate are deliberately
// excluded; see above).
inline constexpr std::array<const char*, 12> kAllFaultSites = {
    fault_site::kDeviceAlloc,   fault_site::kDeviceDma,
    fault_site::kKernelLaunch,  fault_site::kKernelHang,
    fault_site::kCacheBuild,    fault_site::kGraphApply,
    fault_site::kBatchCorrupt,  fault_site::kWalWrite,
    fault_site::kWalFsync,      fault_site::kSnapshotWrite,
    fault_site::kMatchQuery,    fault_site::kSourceBurst,
};

struct FaultSpec {
  double probability = 0.0;   // chance of firing at each hit
  std::uint64_t nth_hit = 0;  // fire on exactly this hit (1-based); 0 = off
  // crash.at and wal.write only: how many bytes of the write in progress
  // reach the file before the crash (crash.at) or before the append is
  // refused (wal.write); 0 = the write never starts.
  std::uint64_t crash_at_byte = 0;
  // Keyed sites only (match.query, probed via fires_for with the QueryId):
  // 0 admits every key; any other value poisons exactly that key. Hits that
  // the filter rejects are neither counted nor drawn, so nth_hit and
  // probability stay deterministic per key even when many keys probe the
  // site concurrently (the kernel.* sites, by contrast, hit in whatever
  // order the match pool schedules).
  std::uint64_t match_query_id = 0;
};

struct FaultObservation {
  std::string site;
  std::uint64_t hit = 0;  // which hit of the site fired (1-based)
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0x5eed5eedULL);

  // Arms one site; replaces any previous spec for it.
  void arm(const std::string& site, FaultSpec spec);
  // Default spec applied to every armable site without an explicit one.
  void arm_all(double probability);
  void disarm(const std::string& site);
  void disarm_all();

  // Master switch: while disabled, fires() counts nothing and never fires.
  // Used to suspend injection around reference/validation matching so
  // faults only strike production batch work.
  void set_enabled(bool on);
  bool enabled() const;

  // Called at a fault site: counts the hit, returns true when the fault
  // fires. The decision is deterministic in (seed, call sequence).
  bool fires(const char* site);

  // fires() variant for sites whose behavior depends on spec parameters
  // (crash.at's byte offset): returns the firing spec, or nullopt when the
  // site does not fire. Counts the hit exactly like fires().
  std::optional<FaultSpec> fires_spec(const char* site);

  // fires() variant for keyed sites (match.query): `key` is the QueryId of
  // the probing query. A spec whose match_query_id is nonzero admits only
  // that key — rejected probes are not counted and never draw, so one query
  // can be poisoned deterministically while the rest of the fan-out stays
  // clean regardless of match_parallelism.
  bool fires_for(const char* site, std::uint64_t key);

  std::uint64_t hits(const std::string& site) const;
  std::uint64_t fired_count() const;
  // Site names of observations[index..): lets a caller attribute firings to
  // one batch by bracketing with fired_count().
  std::vector<std::string> fired_sites_since(std::uint64_t index) const;
  std::vector<FaultObservation> observations() const;

 private:
  const FaultSpec* spec_for(const std::string& site) const;

  mutable std::mutex mu_;
  Rng rng_;
  bool enabled_ = true;
  std::optional<FaultSpec> default_spec_;
  std::unordered_map<std::string, FaultSpec> specs_;
  std::unordered_map<std::string, std::uint64_t> hit_counts_;
  std::vector<FaultObservation> fired_;
};

// RAII suspension of an injector (tolerates nullptr).
class FaultSuspendGuard {
 public:
  explicit FaultSuspendGuard(FaultInjector* injector)
      : injector_(injector),
        was_enabled_(injector != nullptr && injector->enabled()) {
    if (injector_ != nullptr) injector_->set_enabled(false);
  }
  ~FaultSuspendGuard() {
    if (injector_ != nullptr) injector_->set_enabled(was_enabled_);
  }

  FaultSuspendGuard(const FaultSuspendGuard&) = delete;
  FaultSuspendGuard& operator=(const FaultSuspendGuard&) = delete;

 private:
  FaultInjector* injector_;
  bool was_enabled_;
};

}  // namespace gcsm
