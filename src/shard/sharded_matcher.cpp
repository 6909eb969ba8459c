#include "shard/sharded_matcher.hpp"

#include <memory>

#include "core/match_kernel.hpp"
#include "gpusim/simt_executor.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace gcsm::shard {
namespace {

// One access policy per target shard, owned by one shard task: stateful
// policies (the UM page cache) must never be shared across tasks, while the
// const-reference policies (cached / zero-copy / host) are cheap per task.
class RoutedShardPolicy final : public AccessPolicy {
 public:
  RoutedShardPolicy(EngineKind kind, const ShardedGraph& sg,
                    const gpusim::SimParams& sim)
      : sg_(sg), on_device_(kind != EngineKind::kCpu) {
    for (std::size_t s = 0; s < sg.num_shards(); ++s) {
      policies_.push_back(
          make_access_policy(kind, sg.graph(s), sg.cache(s), sim));
    }
  }

  NeighborView fetch(VertexId v, ViewMode mode,
                     gpusim::Traffic& traffic) override {
    return policies_[sg_.owner(v)]->fetch(v, mode, traffic);
  }
  bool on_device() const override { return on_device_; }

 private:
  const ShardedGraph& sg_;
  bool on_device_;
  std::vector<std::unique_ptr<AccessPolicy>> policies_;
};

// A partial match in flight between shards: resume the DFS at `level`
// (whose candidates have not been computed yet) with bound[0..level+2)
// already fixed.
struct Partial {
  std::uint32_t plan_idx = 0;
  std::int8_t sign = +1;
  std::uint32_t level = 0;
  kernel::Binding bound{};
};

// One shard's state for one launch. Only that shard's pool task touches it
// within a round; the barrier between rounds hands its outbox over. The
// shard's traffic is its scratch's plain tally, read once the launch ends.
struct ShardTask {
  std::uint32_t shard = 0;
  std::unique_ptr<RoutedShardPolicy> policy;
  kernel::WorkerScratch scratch;
  std::uint64_t routed_items = 0;
  std::uint64_t migrated = 0;
  std::vector<std::vector<Partial>> outbox;  // [target shard]
};

// One routed launch of the shared kernel: a task per shard, a stitch hook
// that ships a partial to the owner of a branch level's anchor, and the
// superstep loop that drains the shipped partials.
class RoutedLaunch {
 public:
  RoutedLaunch(const QueryGraph& query, const std::vector<MatchPlan>& plans,
               const std::vector<std::vector<std::uint8_t>>& stitch,
               EngineKind kind, const ShardedGraph& sg,
               const gpusim::SimParams& sim, const MatchSink* sink)
      : query_(query),
        plans_(plans),
        stitch_(stitch),
        sg_(sg),
        sink_(sink),
        tasks_(sg.num_shards()) {
    for (std::size_t s = 0; s < tasks_.size(); ++s) {
      tasks_[s].shard = static_cast<std::uint32_t>(s);
      tasks_[s].policy = std::make_unique<RoutedShardPolicy>(kind, sg, sim);
      tasks_[s].outbox.resize(tasks_.size());
    }
  }

  const std::vector<ShardTask>& tasks() const { return tasks_; }

  // Runs body(task) for every shard, one pool task per shard.
  template <typename Body>
  void for_each_task(ThreadPool& pool, const Body& body) {
    pool.parallel_for(tasks_.size(), 1,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        for (std::size_t s = begin; s < end; ++s) {
                          body(tasks_[s]);
                        }
                      });
  }

  // Enumerates the seed pair (xa, xb) of plans[plan] from `task`'s shard.
  void seed(ShardTask& task, std::size_t plan, VertexId xa, VertexId xb,
            int sign) {
    ++task.scratch.stats.seeds;
    Partial p;
    p.plan_idx = static_cast<std::uint32_t>(plan);
    p.sign = static_cast<std::int8_t>(sign);
    p.bound[0] = xa;
    p.bound[1] = xb;
    expand(task, p);
  }

  // Drains shipped partials in barrier-separated supersteps until no
  // outbox has work. Returns the number of rounds run.
  std::uint32_t run_supersteps(ThreadPool& pool) {
    std::uint32_t rounds = 0;
    std::vector<std::vector<Partial>> inbox(tasks_.size());
    for (;;) {
      bool any = false;
      for (std::size_t s = 0; s < tasks_.size(); ++s) {
        inbox[s].clear();
        for (ShardTask& src : tasks_) {
          std::vector<Partial>& box = src.outbox[s];
          inbox[s].insert(inbox[s].end(), box.begin(), box.end());
          box.clear();
        }
        if (!inbox[s].empty()) any = true;
      }
      if (!any) return rounds;
      ++rounds;
      for_each_task(pool, [&](ShardTask& task) {
        for (const Partial& p : inbox[task.shard]) expand(task, p);
      });
    }
  }

 private:
  // The kernel's DFS from `p` on `task`'s shard. Before descending into a
  // BRANCH level whose anchor another shard owns, the partial is shipped to
  // that owner instead; a partial shipped here never ships again at its
  // entry level, because its anchor is ours.
  void expand(ShardTask& task, const Partial& p) {
    const MatchPlan& plan = plans_[p.plan_idx];
    const std::vector<std::uint8_t>& stitch = stitch_[p.plan_idx];
    const auto stays_here = [&](std::uint32_t level,
                                const kernel::Binding& bound) {
      if (stitch[level] == 0) return true;
      const auto& anchor = plan.levels[level].constraints[0];
      const std::uint32_t target = sg_.owner(bound[anchor.order_pos]);
      if (target == task.shard) return true;
      task.outbox[target].push_back(Partial{p.plan_idx, p.sign, level, bound});
      ++task.migrated;
      return false;
    };
    kernel::enumerate(query_, plan, sg_.graph(task.shard), p.bound, p.level,
                      p.sign,
                      kernel::PolicyFetch(*task.policy, task.scratch.traffic),
                      task.scratch, sink_, nullptr, stays_here);
  }

  const QueryGraph& query_;
  const std::vector<MatchPlan>& plans_;
  const std::vector<std::vector<std::uint8_t>>& stitch_;
  const ShardedGraph& sg_;
  kernel::SinkLock sink_;
  std::vector<ShardTask> tasks_;
};

}  // namespace

ShardedMatcher::ShardedMatcher(QueryGraph query)
    : query_(std::move(query)),
      static_plans_{make_static_plan(query_)},
      delta_plans_(make_delta_plans(query_)),
      decomposition_(make_branch_decomposition(query_)) {
  delta_stitch_.reserve(delta_plans_.size());
  for (const MatchPlan& p : delta_plans_) {
    delta_stitch_.push_back(stitch_levels(decomposition_, p));
  }
  static_stitch_.push_back(stitch_levels(decomposition_, static_plans_[0]));
}

MatchStats ShardedMatcher::match_batch(
    EngineKind effective_kind, const ShardedGraph& sg, const EdgeBatch& batch,
    ThreadPool& pool, const MatchSink* sink, const gpusim::SimParams& sim,
    FaultInjector* faults, double watchdog_timeout_ms,
    std::vector<gpusim::Traffic>* per_shard_traffic, StitchStats* stitch) {
  // Kernel fault sites, probed once per shard launch BEFORE any item runs
  // (mirroring SimtExecutor's contract, so no partial kernel effects
  // escape). A hung shard kernel surfaces directly as the watchdog's
  // cancellation.
  if (faults != nullptr && effective_kind != EngineKind::kCpu) {
    for (std::size_t s = 0; s < sg.num_shards(); ++s) {
      if (faults->fires(fault_site::kKernelLaunch)) {
        throw gpusim::KernelLaunchError();
      }
      if (faults->fires(fault_site::kKernelHang)) {
        throw gpusim::KernelTimeoutError(watchdog_timeout_ms);
      }
    }
  }

  RoutedLaunch launch(query_, delta_plans_, delta_stitch_, effective_kind, sg,
                      sim, sink);
  // Round 0: the single-device work-item space, with each item claimed by
  // owner(xa) — exactly-once enumeration globally.
  const std::size_t items =
      kernel::num_seed_items(delta_plans_.size(), batch);
  launch.for_each_task(pool, [&](ShardTask& task) {
    for (std::size_t item = 0; item < items; ++item) {
      const kernel::SeedItem seed = kernel::decode_seed_item(item, batch);
      if (sg.owner(seed.xa) != task.shard) continue;
      ++task.routed_items;
      if (kernel::seed_admits(query_, delta_plans_[seed.plan],
                              sg.graph(task.shard), seed.xa, seed.xb,
                              nullptr)) {
        launch.seed(task, seed.plan, seed.xa, seed.xb, seed.sign);
      }
    }
  });

  Timer stitch_timer;
  const std::uint32_t extra = launch.run_supersteps(pool);

  MatchStats stats;
  std::uint64_t routed = 0;
  std::uint64_t migrated = 0;
  if (per_shard_traffic != nullptr) per_shard_traffic->clear();
  for (const ShardTask& task : launch.tasks()) {
    stats += task.scratch.stats;
    routed += task.routed_items;
    migrated += task.migrated;
    if (per_shard_traffic != nullptr) {
      per_shard_traffic->push_back(task.scratch.traffic);
    }
  }
  if (stitch != nullptr) {
    stitch->routed_items = routed;
    stitch->stitch_candidates = migrated;
    stitch->supersteps = 1 + extra;
    stitch->stitch_seconds = extra > 0 ? stitch_timer.seconds() : 0.0;
  }
  return stats;
}

MatchStats ShardedMatcher::match_full(EngineKind effective_kind,
                                      const ShardedGraph& sg,
                                      ThreadPool& pool,
                                      const gcsm::gpusim::SimParams& sim,
                                      const MatchSink* sink) {
  RoutedLaunch launch(query_, static_plans_, static_stitch_, effective_kind,
                      sg, sim, sink);
  const VertexId n = sg.num_vertices();
  launch.for_each_task(pool, [&](ShardTask& task) {
    const kernel::PolicyFetch fetch(*task.policy, task.scratch.traffic);
    for (VertexId xa = 0; xa < n; ++xa) {
      if (sg.owner(xa) != task.shard) continue;
      // Every ordered pair (xa, xb) is its own seed, so both orientations
      // are covered.
      kernel::scan_static_seeds(
          query_, static_plans_[0], sg.graph(task.shard), xa, fetch,
          [&](VertexId xb) { launch.seed(task, 0, xa, xb, +1); });
    }
  });
  launch.run_supersteps(pool);

  MatchStats stats;
  for (const ShardTask& task : launch.tasks()) stats += task.scratch.stats;
  return stats;
}

}  // namespace gcsm::shard
