// Crash durability for the streaming pipeline: WAL + snapshots + recovery
// (docs/ROBUSTNESS.md, "Durability & recovery").
//
// Commit protocol, per batch (batch-granular exactly-once):
//   1. begin_batch  — the sanitized batch is appended to the WAL as a
//      kBatch record and fsynced BEFORE the graph is touched;
//   2. the engine applies and matches the batch (its own transactional
//      rollback handles in-flight failures);
//   3. the batch's commit unit — its server-state transitions, then a
//      kCommit marker carrying the cumulative durable counters — is appended
//      and fsynced once AFTER the report is produced, synchronously
//      (commit_batch) or by the group committer (enqueue_commit); both write
//      through one routine, and commit_transaction (core/recovery.hpp) is
//      the one caller;
//   4. maybe_snapshot — every snapshot_interval commits, a full graph
//      snapshot is written atomically and the WAL prefix is compacted
//      (truncated to zero: every logged record is now covered).
// Every WAL append, fsync and snapshot write goes through one bounded retry
// for transient faults (max_write_attempts each); a CrashError always
// escapes. Only this module and util/wal know the WAL record types.
//
// Recovery (recover()): load the latest valid snapshot, truncate any torn
// or corrupt WAL tail (warning, not a crash), then hand back the COMMITTED
// batch records with seq beyond the snapshot for deterministic replay.
// Batch records without a commit marker are dropped — their effects never
// made it into a report, so the client re-submits them (it resumes from
// `counters.batches_committed`). The last commit marker's counters are the
// integrity check: replay must reproduce them exactly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/snapshot.hpp"
#include "util/wal.hpp"

namespace gcsm {

class FaultInjector;

struct DurabilityOptions {
  // Directory for gcsm.wal and graph.snap. Empty = durability disabled.
  std::string wal_dir;
  // Snapshot + compact the WAL every N committed batches (0 = never).
  std::uint64_t snapshot_interval = 8;
  // Recover from wal_dir at pipeline construction. Off = start fresh (any
  // existing WAL is truncated so stale records cannot replay later).
  bool recover_on_start = true;
  // fsync on commit boundaries. Off skips the syscall (tests) but keeps the
  // protocol and fault sites identical.
  bool fsync = true;
  // Bounded internal retries for transient WAL/snapshot write faults, per
  // append, per fsync and per snapshot write.
  int max_write_attempts = 3;
  // Group commit (pipelined schedule only): commit units handed to
  // enqueue_commit are fsynced by a dedicated committer thread that
  // coalesces up to this many batches per fsync. The synchronous
  // commit_batch path ignores it. 1 = one fsync per commit (no coalescing,
  // still asynchronous).
  std::uint64_t group_commit_batches = 1;

  bool enabled() const { return !wal_dir.empty(); }
};

// One batch's step-3 work: its server-state transition payloads (appended
// BEFORE the marker at the batch's seq, so the marker never lands without
// them) plus the commit marker's counters, made durable by one fsync.
struct CommitUnit {
  std::uint64_t seq = 0;
  durable::DurableCounters counters;
  std::vector<std::string> server_states;
};

// What recover() found; the pipeline restores `graph` (if loaded) and
// replays `replay` in order.
struct RecoveredState {
  bool snapshot_loaded = false;
  DynamicGraph::Snapshot graph;        // valid when snapshot_loaded
  durable::DurableCounters counters;   // as of the snapshot (zero if none)

  // Committed batches beyond the snapshot, ascending seq.
  std::vector<std::pair<std::uint64_t, EdgeBatch>> replay;
  // Counters from the last commit marker — what replay must reproduce.
  durable::DurableCounters expected;
  bool have_expected = false;

  // kServerState payloads in log order (multi-query health transitions;
  // see server/query_health.hpp). A trailing state record without a
  // following commit marker is still included: the transition itself was
  // durable even if the batch that carried it never committed.
  std::vector<std::pair<std::uint64_t, std::string>> server_states;

  // Sequence numbers the admission layer shed under overload (kShed audit
  // records, ascending log order). Never replayed, never counted as dropped:
  // the gap in the committed stream is explained, not anomalous
  // (docs/ROBUSTNESS.md, "Overload & admission control").
  std::vector<std::uint64_t> shed_seqs;

  std::size_t dropped_uncommitted = 0;  // logged but never committed
  bool wal_tail_truncated = false;
  std::string warning;  // accumulated recovery warnings (also on stderr)
};

class DurabilityManager {
 public:
  // Creates wal_dir if needed. The injector is non-owning (nullptr =
  // disarmed) and must outlive the manager.
  DurabilityManager(DurabilityOptions options, FaultInjector* faults);
  // Stops and joins the committer thread. Units still queued are DISCARDED
  // (never swallowed silently into the log): destruction without a prior
  // drain() is crash-equivalent, and recovery re-exposes the uncommitted
  // tail exactly as it would after a real kill.
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  const DurabilityOptions& options() const { return options_; }
  const std::string& snapshot_path() const { return snapshot_path_; }

  // Reads the snapshot and the WAL, repairs a damaged tail, and returns the
  // state to restore + replay. Call once, before the first begin_batch.
  // When recover_on_start is off, discards any existing WAL instead.
  RecoveredState recover();

  // Step 1: durably logs the batch under the next sequence number (returned)
  // before the pipeline touches the graph. Transient write faults retry up
  // to max_write_attempts; CrashError always escapes.
  std::uint64_t begin_batch(const EdgeBatch& batch);

  // Step 3, synchronously: appends the unit's server-state records, then its
  // commit marker, and fsyncs once. Same retry contract as begin_batch.
  // When a non-crash Error escapes, the log is first truncated back to its
  // length before the unit: the caller rolls the batch back and the client
  // re-submits it under a new seq, so no record of this unit may replay.
  void commit_batch(const CommitUnit& unit);

  // Step 3 through group commit (docs/ROBUSTNESS.md, "Group commit"): hands
  // the unit to the committer thread and returns immediately. The committer
  // writes each group of up to group_commit_batches units exactly as
  // commit_batch writes one, with one fsync per group. The batch is
  // durable — and its report may be surfaced — only once durable_seq()
  // reaches its seq. A committer failure is sticky: it is rethrown
  // (CrashError included) from the next enqueue_commit()/drain(). The
  // committer thread starts lazily on the first enqueue.
  void enqueue_commit(CommitUnit unit);

  // Highest seq whose commit marker has durably landed via the committer.
  std::uint64_t durable_seq() const;

  // Blocks until every enqueued unit is durable; rethrows a committer
  // failure. MUST be called before maybe_snapshot or committed_batches
  // while group commit is in flight: compaction truncates the whole log,
  // which is only sound once every queued marker has landed. No-op when
  // the committer was never started.
  void drain();

  // Durably logs a kShed audit record (admission control dropped a batch
  // under overload) and returns the sequence number it consumed. The seq is
  // allocated from the SAME space as begin_batch so every gap in the
  // committed stream has a durable explanation; the record is never
  // replayed and never advances the aggregate counters. Engine-thread only
  // (shares next_seq_ with begin_batch, which has no extra synchronization).
  // Same retry contract as begin_batch.
  std::uint64_t log_shed(const std::string& payload);

  // Exact catch-up's view of the log: the committed batches with seq in
  // (after, upto], ascending, skipping seqs the admission layer shed.
  // nullopt when the WAL no longer covers that range: some seq in it is
  // neither shed nor a committed batch that decodes.
  std::optional<std::vector<std::pair<std::uint64_t, EdgeBatch>>>
  committed_batches(std::uint64_t after, std::uint64_t upto) const;

  // snapshot_interval commits since the last snapshot, counting enqueued
  // ones: callers on the group-commit schedule drain() before snapshotting.
  bool snapshot_due() const {
    return options_.snapshot_interval != 0 &&
           commits_since_snapshot_ >= options_.snapshot_interval;
  }

  // Step 4, the only way to take a snapshot: when snapshot_due(), writes
  // the graph snapshot and compacts the WAL. A CrashError escapes (the
  // process is "dead"); any other failure is swallowed with a warning — the
  // WAL still covers everything, so correctness is intact, and the next
  // commit tries again. Returns true when a snapshot was actually written.
  bool maybe_snapshot(const DynamicGraph& graph,
                      const durable::DurableCounters& counters);

 private:
  void ensure_writer();
  // The one bounded retry of WAL and snapshot writes: re-runs `write` after
  // a transient Error, up to max_write_attempts runs in all, then rethrows.
  // A CrashError always escapes. A WAL append that throws has written
  // nothing, so running it again cannot duplicate the record.
  void retry_write(const std::function<void()>& write) const;
  // Appends one record under the next sequence number and fsyncs it.
  std::uint64_t log_record(wal::RecordType type, const std::string& payload);
  // The one commit writer: each unit's server-state records, then its
  // marker, then one fsync for all of them.
  void write_commits(std::span<const CommitUnit> units);
  // Blocks until durable_seq() >= seq or the committer failed (rethrows).
  void wait_durable(std::uint64_t seq);
  void committer_loop();

  DurabilityOptions options_;
  std::string wal_path_;
  std::string snapshot_path_;
  FaultInjector* faults_;
  std::unique_ptr<wal::Writer> writer_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t commits_since_snapshot_ = 0;

  // Group-commit state. commit_mu_ guards the queue, durable_seq_, the
  // stored failure, and the stop flag; commit_cv_ wakes the committer,
  // durable_cv_ wakes waiters in wait_durable/drain.
  mutable std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::condition_variable durable_cv_;
  std::deque<CommitUnit> commit_queue_;
  std::uint64_t durable_seq_ = 0;
  std::uint64_t enqueued_seq_ = 0;
  std::exception_ptr committer_error_;
  bool committer_stop_ = false;
  std::thread committer_;
};

}  // namespace gcsm
