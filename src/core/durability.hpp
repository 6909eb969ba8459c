// Crash durability for the streaming pipeline: WAL + snapshots + recovery
// (docs/ROBUSTNESS.md, "Durability & recovery").
//
// Commit protocol, per batch (batch-granular exactly-once):
//   1. the engine applies and matches the batch (its own transactional
//      rollback handles in-flight failures) and produces its report;
//   2. commit_batch — the batch's commit unit (the sanitized batch as a
//      kBatch record, its server-state transitions, then a kCommit marker
//      carrying the cumulative durable counters) is appended under the next
//      seq and fsynced once on the caller's thread, before the report is
//      returned; commit_transaction (core/recovery.hpp) is the one caller;
//   3. maybe_snapshot — every snapshot_interval commits, a full graph
//      snapshot is written atomically and the WAL prefix is compacted
//      (truncated to zero: every logged record is now covered).
// Every WAL append, fsync and snapshot write goes through one bounded retry
// for transient faults (max_write_attempts each); a CrashError always
// escapes. Only this module and util/wal know the WAL record types.
//
// Recovery (recover()): load the latest valid snapshot, truncate any torn
// or corrupt WAL tail (warning, not a crash), then hand back the COMMITTED
// batch records with seq beyond the snapshot for deterministic replay.
// Batch records without a commit marker (a crash between a unit's appends,
// or a log written before the batch record joined its unit) are dropped —
// their effects never made it into a report, so the client re-submits them
// (it resumes from `counters.batches_committed`). The last commit marker's
// counters are the integrity check: replay must reproduce them exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
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

  bool enabled() const { return !wal_dir.empty(); }
};

// What a batch's commit unit adds to its batch record: its server-state
// transition payloads (appended after the batch record and BEFORE the
// marker, so the marker never lands without them) and the marker's
// counters. commit_batch sets the marker's last_seq to the seq it assigns.
struct CommitUnit {
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

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  const DurabilityOptions& options() const { return options_; }
  const std::string& snapshot_path() const { return snapshot_path_; }

  // Reads the snapshot and the WAL, repairs a damaged tail, and returns the
  // state to restore + replay. Call once, before the first commit_batch.
  // When recover_on_start is off, discards any existing WAL instead.
  RecoveredState recover();

  // Step 2: assigns the next sequence number (returned) and appends the
  // sanitized `batch` as a kBatch record, then the unit's server-state
  // records, then its commit marker, all under that seq and made durable by
  // one fsync. Transient write faults retry up to max_write_attempts;
  // CrashError always escapes. When another Error escapes, the log is first
  // cut back to its length before the unit, and the seq stays unused: the
  // caller rolls the batch back, and the client's re-submission commits
  // under the same seq. A cut that fails is fail-stop: a non-transient
  // Error escapes, and every later commit_batch and log_shed throws too,
  // until the engine is rebuilt with recover_on_start.
  std::uint64_t commit_batch(const EdgeBatch& batch, const CommitUnit& unit);

  // Durably logs a kShed audit record (admission control dropped a batch
  // under overload) and returns the sequence number it used. The seq comes
  // from the SAME space as commit_batch's, so every gap in the committed
  // stream has a durable explanation; the record is never replayed and
  // never advances the aggregate counters. Engine-thread only (shares
  // next_seq_ with commit_batch, which has no extra synchronization). Same
  // retry, cut and fail-stop contract as commit_batch.
  std::uint64_t log_shed(const std::string& payload);

  // Exact catch-up's view of the log: the committed batches with seq in
  // (after, upto], ascending, skipping seqs the admission layer shed.
  // nullopt when the WAL no longer covers that range: some seq in it is
  // neither shed nor a committed batch that decodes.
  std::optional<std::vector<std::pair<std::uint64_t, EdgeBatch>>>
  committed_batches(std::uint64_t after, std::uint64_t upto) const;

  // snapshot_interval commits since the last snapshot.
  bool snapshot_due() const {
    return options_.snapshot_interval != 0 &&
           commits_since_snapshot_ >= options_.snapshot_interval;
  }

  // Step 3, the only way to take a snapshot: when snapshot_due(), writes
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
  // A CrashError always escapes. A WAL append that throws a transient Error
  // has cut the log back to its last whole record (wal::Writer::append), so
  // running it again appends the record once, after whole records only.
  void retry_write(const std::function<void()>& write) const;
  // The one WAL writer: appends `records` under the next sequence number,
  // then one fsync for all of them, and returns that seq. A failure cuts the
  // log back to its length before the first record and uses up no seq.
  std::uint64_t write_unit(
      const std::vector<std::pair<wal::RecordType, std::string>>& records);

  DurabilityOptions options_;
  std::string wal_path_;
  std::string snapshot_path_;
  FaultInjector* faults_;
  std::unique_ptr<wal::Writer> writer_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t commits_since_snapshot_ = 0;
};

}  // namespace gcsm
