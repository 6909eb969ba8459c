#include "core/cpu_engine.hpp"

#include "core/match_kernel.hpp"
#include "util/timer.hpp"

namespace gcsm {
namespace {

// Adds every block's traffic tally to the launch's counters once the launch
// ends, a throw included, so a caller's before/after snapshots and a failed
// attempt's charges see every access the launch made.
class MergeTallies {
 public:
  MergeTallies(const std::vector<kernel::WorkerScratch>& scratch,
               gpusim::TrafficCounters& counters)
      : scratch_(scratch), counters_(counters) {}
  MergeTallies(const MergeTallies&) = delete;
  MergeTallies& operator=(const MergeTallies&) = delete;
  ~MergeTallies() {
    gpusim::Traffic sum;
    for (const kernel::WorkerScratch& s : scratch_) sum += s.traffic;
    counters_.add(sum);
  }

 private:
  const std::vector<kernel::WorkerScratch>& scratch_;
  gpusim::TrafficCounters& counters_;
};

// One seed pair's whole subtree, on this device, charged to the block's
// tally.
void enumerate_seed(const QueryGraph& query, const MatchPlan& plan,
                    const DynamicGraph& graph, VertexId xa, VertexId xb,
                    int sign, AccessPolicy& policy,
                    kernel::WorkerScratch& scratch, kernel::SinkLock& sink,
                    const CandidateFilter* filter) {
  ++scratch.stats.seeds;
  kernel::enumerate(query, plan, graph, {xa, xb}, 0, sign,
                    kernel::PolicyFetch(policy, scratch.traffic), scratch,
                    sink, filter);
}

}  // namespace

MatchEngine::MatchEngine(QueryGraph query, gpusim::SimtExecutor& executor,
                         std::size_t grain)
    : query_(std::move(query)),
      static_plan_(make_static_plan(query_)),
      delta_plans_(make_delta_plans(query_)),
      executor_(executor),
      grain_(grain) {}

MatchStats MatchEngine::match_batch(const DynamicGraph& graph,
                                    const EdgeBatch& batch,
                                    AccessPolicy& policy,
                                    gpusim::TrafficCounters& counters,
                                    const MatchSink* sink,
                                    const CandidateFilter* filter) {
  return match_batch_with_plans(delta_plans_, graph, batch, policy, counters,
                                sink, filter);
}

MatchStats MatchEngine::match_batch_with_plans(
    const std::vector<MatchPlan>& plans, const DynamicGraph& graph,
    const EdgeBatch& batch, AccessPolicy& policy,
    gpusim::TrafficCounters& counters, const MatchSink* sink,
    const CandidateFilter* filter,
    std::vector<double>* per_block_busy_seconds) {
  std::vector<kernel::WorkerScratch> scratch(executor_.num_blocks());
  const MergeTallies merge(scratch, counters);
  kernel::SinkLock sink_lock(sink);

  executor_.for_each_item(
      kernel::num_seed_items(plans.size(), batch), grain_,
      [&](std::size_t item, std::size_t block) {
        const kernel::SeedItem seed = kernel::decode_seed_item(item, batch);
        const MatchPlan& plan = plans[seed.plan];
        if (!kernel::seed_admits(query_, plan, graph, seed.xa, seed.xb,
                                 filter)) {
          return;
        }
        kernel::WorkerScratch& ws = scratch[block];
        const Timer seed_timer;
        enumerate_seed(query_, plan, graph, seed.xa, seed.xb, seed.sign,
                       policy, ws, sink_lock, filter);
        ws.busy_seconds += seed_timer.seconds();
      });

  MatchStats stats;
  if (per_block_busy_seconds != nullptr) per_block_busy_seconds->clear();
  for (const kernel::WorkerScratch& s : scratch) {
    stats += s.stats;
    if (per_block_busy_seconds != nullptr) {
      per_block_busy_seconds->push_back(s.busy_seconds);
    }
  }
  return stats;
}

MatchStats MatchEngine::match_full(const DynamicGraph& graph,
                                   AccessPolicy& policy,
                                   gpusim::TrafficCounters& counters,
                                   const MatchSink* sink) {
  std::vector<kernel::WorkerScratch> scratch(executor_.num_blocks());
  const MergeTallies merge(scratch, counters);
  kernel::SinkLock sink_lock(sink);

  // Every ordered pair (xa, xb) is its own seed, so both orientations are
  // covered.
  executor_.for_each_item(
      static_cast<std::size_t>(graph.num_vertices()), grain_ * 16,
      [&](std::size_t item, std::size_t block) {
        const auto xa = static_cast<VertexId>(item);
        kernel::WorkerScratch& ws = scratch[block];
        kernel::scan_static_seeds(
            query_, static_plan_, graph, xa,
            kernel::PolicyFetch(policy, ws.traffic), [&](VertexId xb) {
              enumerate_seed(query_, static_plan_, graph, xa, xb, +1, policy,
                             ws, sink_lock, nullptr);
            });
      });

  MatchStats stats;
  for (const kernel::WorkerScratch& s : scratch) stats += s.stats;
  return stats;
}

}  // namespace gcsm
