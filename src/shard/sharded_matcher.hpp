// The cross-shard delta-join enumerator (DESIGN.md, "Multi-device
// sharding").
//
// Runs the single-device match kernel (core/match_kernel.hpp) — the same
// work-item space (plan x ΔE record x orientation), candidate step, bind
// check and op charging — and adds only what sharding needs:
//
//   * every seed work item is routed to owner(xa), the shard owning the
//     delta edge's first endpoint; since each (plan, record, orientation)
//     triple has exactly one owner, every item is enumerated exactly once
//     globally — that IS the duplicate-match canonicalization at the join;
//   * at non-branch levels, remote neighbor lists are read inline through a
//     RoutedShardPolicy that forwards each fetch to the owning shard's
//     policy (cache, zero-copy, UM, or host — mirroring the engine kind);
//   * the kernel's before-descend hook stitches: before a BRANCH level
//     (query/branch_plan.hpp) whose anchor is remote, the partial match
//     migrates to the anchor's owner via per-shard outboxes, drained in
//     barrier-separated supersteps until no partials remain.
//
// Exactness: owner(v)'s views are byte-identical to the single-device
// graph's (ShardedGraph invariant), so candidate sets — hence emitted
// embeddings, MatchStats totals and charged ops — are bit-identical to
// MatchEngine's.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/phases.hpp"
#include "query/branch_plan.hpp"
#include "shard/sharded_graph.hpp"
#include "util/thread_pool.hpp"

namespace gcsm::shard {

// Per-batch stitch accounting (the shard.* metric series).
struct StitchStats {
  std::uint64_t routed_items = 0;       // seed work items routed to owners
  std::uint64_t stitch_candidates = 0;  // partials migrated at branch levels
  std::uint32_t supersteps = 1;         // barrier rounds (1 = no migration)
  double stitch_seconds = 0.0;          // wall time in rounds beyond the first
};

class ShardedMatcher {
 public:
  explicit ShardedMatcher(QueryGraph query);

  const QueryGraph& query() const { return query_; }
  const std::vector<MatchPlan>& delta_plans() const { return delta_plans_; }
  const BranchDecomposition& decomposition() const { return decomposition_; }

  // Incremental matching of the GLOBAL batch across sg's shards. Shard
  // tasks run on `pool` (one task per shard); per_shard_traffic (one entry
  // per shard) receives each shard's match-phase traffic. `effective_kind`
  // selects the per-shard access policies (kCpu = the recovery ladder's
  // host fallback).
  // Kernel fault sites are probed once per shard before any item runs.
  MatchStats match_batch(EngineKind effective_kind, const ShardedGraph& sg,
                         const EdgeBatch& batch, ThreadPool& pool,
                         const MatchSink* sink, const gpusim::SimParams& sim,
                         FaultInjector* faults, double watchdog_timeout_ms,
                         std::vector<gpusim::Traffic>* per_shard_traffic,
                         StitchStats* stitch);

  // Full static matching (Fig. 2a) over the NEW view, seed vertices routed
  // to their owners. Diagnostic recount for tests; no fault probes.
  MatchStats match_full(EngineKind effective_kind, const ShardedGraph& sg,
                        ThreadPool& pool, const gcsm::gpusim::SimParams& sim,
                        const MatchSink* sink = nullptr);

 private:
  QueryGraph query_;
  std::vector<MatchPlan> static_plans_;  // just the static plan
  std::vector<MatchPlan> delta_plans_;
  BranchDecomposition decomposition_;
  // Per plan, which levels are branch levels (stitch points).
  std::vector<std::vector<std::uint8_t>> static_stitch_;
  std::vector<std::vector<std::uint8_t>> delta_stitch_;
};

}  // namespace gcsm::shard
