#include "core/durability.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "util/durable_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace gcsm {
namespace {

void warn(RecoveredState* state, const std::string& message) {
  std::fprintf(stderr, "[gcsm] warning: %s\n", message.c_str());
  if (state != nullptr) {
    if (!state->warning.empty()) state->warning += "; ";
    state->warning += message;
  }
}

}  // namespace

DurabilityManager::DurabilityManager(DurabilityOptions options,
                                     FaultInjector* faults)
    : options_(std::move(options)), faults_(faults) {
  if (!options_.enabled()) return;
  io::ensure_dir(options_.wal_dir);
  wal_path_ = options_.wal_dir + "/gcsm.wal";
  snapshot_path_ = options_.wal_dir + "/graph.snap";
}

void DurabilityManager::ensure_writer() {
  if (writer_ == nullptr) {
    writer_ = std::make_unique<wal::Writer>(wal_path_, options_.fsync, faults_);
  }
}

RecoveredState DurabilityManager::recover() {
  static auto& m_replayed =
      metrics::Registry::global().counter(metric::kRecoveryReplayedBatches);
  static auto& m_dropped =
      metrics::Registry::global().counter(metric::kRecoveryDroppedUncommitted);
  static auto& m_truncations =
      metrics::Registry::global().counter(metric::kRecoveryWalTailTruncations);
  RecoveredState state;
  if (!options_.enabled()) return state;

  if (!options_.recover_on_start) {
    // Fresh start: stale durable state must not replay into a later run.
    if (io::read_file_if_exists(wal_path_).has_value()) {
      wal::truncate_log(wal_path_, 0);
    }
    std::remove(snapshot_path_.c_str());
    return state;
  }

  std::string snap_why;
  if (auto loaded = durable::load_snapshot_file(snapshot_path_, &snap_why)) {
    state.snapshot_loaded = true;
    state.graph = std::move(loaded->graph);
    state.counters = loaded->counters;
    state.expected = loaded->counters;
    state.have_expected = true;
    next_seq_ = state.counters.last_seq + 1;
  } else if (snap_why != "no snapshot file") {
    // A damaged snapshot is ignored, not fatal: if the WAL still covers the
    // committed history the replay integrity check passes; if it was
    // compacted, the check fails and recovery reports kRecovery instead of
    // serving wrong state.
    warn(&state, "ignoring snapshot " + snapshot_path_ + ": " + snap_why);
  }

  wal::ReadResult log = wal::read_all(wal_path_);
  if (log.tail_damaged) {
    warn(&state, "WAL tail damaged (" + log.tail_reason + "); truncating " +
                     wal_path_ + " to " + std::to_string(log.valid_bytes) +
                     " bytes");
    wal::truncate_log(wal_path_, log.valid_bytes);
    state.wal_tail_truncated = true;
    m_truncations.add();
  }

  std::unordered_map<std::uint64_t, const std::string*> batch_payloads;
  std::unordered_set<std::uint64_t> committed;
  std::uint64_t max_seq = state.counters.last_seq;
  for (const wal::Record& rec : log.records) {
    max_seq = std::max(max_seq, rec.seq);
    if (rec.type == wal::RecordType::kBatch) {
      batch_payloads[rec.seq] = &rec.payload;
      continue;
    }
    if (rec.type == wal::RecordType::kServerState) {
      // Health transitions are opaque here; the multi-query engine decodes
      // and applies them against the registry image during its own replay.
      state.server_states.emplace_back(rec.seq, rec.payload);
      continue;
    }
    if (rec.type == wal::RecordType::kShed) {
      // Admission-control audit record: the seq was consumed but the batch
      // was intentionally dropped. Reported so callers (and the integrity
      // gate) can tell a shed gap from a lost batch; never replayed.
      state.shed_seqs.push_back(rec.seq);
      continue;
    }
    // Commit marker: its counters are the integrity target; its batch is
    // replayed when the snapshot does not already cover it.
    const auto counters = durable::decode_counters(rec.payload);
    if (!counters.has_value()) {
      throw Error(ErrorCode::kRecovery,
                  "commit marker seq " + std::to_string(rec.seq) +
                      " has undecodable counters");
    }
    committed.insert(rec.seq);
    state.expected = *counters;
    state.have_expected = true;
    if (rec.seq <= state.counters.last_seq) continue;
    const auto it = batch_payloads.find(rec.seq);
    if (it == batch_payloads.end()) {
      throw Error(ErrorCode::kRecovery,
                  "commit marker seq " + std::to_string(rec.seq) +
                      " has no batch record");
    }
    auto batch = durable::decode_batch(*it->second);
    if (!batch.has_value()) {
      throw Error(ErrorCode::kRecovery,
                  "batch record seq " + std::to_string(rec.seq) +
                      " failed to decode");
    }
    state.replay.emplace_back(rec.seq, std::move(*batch));
  }
  for (const auto& [seq, payload] : batch_payloads) {
    if (committed.count(seq) == 0) ++state.dropped_uncommitted;
  }
  if (state.dropped_uncommitted > 0) {
    warn(&state, std::to_string(state.dropped_uncommitted) +
                     " uncommitted WAL batch(es) dropped; the client resumes "
                     "from batches_committed");
  }
  next_seq_ = std::max(next_seq_, max_seq + 1);
  m_replayed.add(state.replay.size());
  m_dropped.add(state.dropped_uncommitted);
  return state;
}

void DurabilityManager::retry_write(
    const std::function<void()>& write) const {
  for (int attempts = std::max(1, options_.max_write_attempts);;) {
    try {
      write();
      return;
    } catch (const CrashError&) {
      throw;
    } catch (const Error& e) {
      if (!e.transient() || --attempts <= 0) throw;
    }
  }
}

std::uint64_t DurabilityManager::write_unit(
    const std::vector<std::pair<wal::RecordType, std::string>>& records) {
  ensure_writer();
  const std::uint64_t seq = next_seq_;
  const std::uint64_t before = writer_->size();
  try {
    for (const auto& [type, payload] : records) {
      retry_write([&] { writer_->append(type, seq, payload); });
    }
    retry_write([&] { writer_->sync(); });
  } catch (const CrashError&) {
    throw;
  } catch (const Error&) {
    // No record of a failed unit may replay: the client re-submits it, and
    // the re-submission takes this seq again.
    writer_->truncate(before);
    throw;
  }
  return next_seq_++;
}

std::uint64_t DurabilityManager::commit_batch(const EdgeBatch& batch,
                                              const CommitUnit& unit) {
  durable::DurableCounters marker = unit.counters;
  marker.last_seq = next_seq_;
  std::vector<std::pair<wal::RecordType, std::string>> records = {
      {wal::RecordType::kBatch, durable::encode_batch(batch)}};
  for (const std::string& payload : unit.server_states) {
    records.emplace_back(wal::RecordType::kServerState, payload);
  }
  records.emplace_back(wal::RecordType::kCommit,
                       durable::encode_counters(marker));
  const std::uint64_t seq = write_unit(records);
  ++commits_since_snapshot_;
  return seq;
}

std::uint64_t DurabilityManager::log_shed(const std::string& payload) {
  return write_unit({{wal::RecordType::kShed, payload}});
}

std::optional<std::vector<std::pair<std::uint64_t, EdgeBatch>>>
DurabilityManager::committed_batches(std::uint64_t after,
                                     std::uint64_t upto) const {
  const wal::ReadResult log = wal::read_all(wal_path_);
  std::unordered_map<std::uint64_t, const std::string*> batches;
  std::unordered_set<std::uint64_t> committed;
  std::unordered_set<std::uint64_t> shed;
  for (const wal::Record& rec : log.records) {
    if (rec.type == wal::RecordType::kBatch) {
      batches[rec.seq] = &rec.payload;
    } else if (rec.type == wal::RecordType::kCommit) {
      committed.insert(rec.seq);
    } else if (rec.type == wal::RecordType::kShed) {
      shed.insert(rec.seq);
    }
  }
  std::vector<std::pair<std::uint64_t, EdgeBatch>> out;
  for (std::uint64_t seq = after + 1; seq <= upto; ++seq) {
    // A shed seq is an explained gap in the committed stream (the admission
    // layer dropped that batch for every query): nothing to replay.
    if (shed.count(seq) != 0) continue;
    const auto it = batches.find(seq);
    if (it == batches.end() || committed.count(seq) == 0) return std::nullopt;
    auto batch = durable::decode_batch(*it->second);
    if (!batch.has_value()) return std::nullopt;
    out.emplace_back(seq, std::move(*batch));
  }
  return out;
}

bool DurabilityManager::maybe_snapshot(
    const DynamicGraph& graph, const durable::DurableCounters& counters) {
  static auto& m_failures =
      metrics::Registry::global().counter(metric::kSnapshotFailures);
  static auto& m_compactions =
      metrics::Registry::global().counter(metric::kWalCompactions);
  if (!snapshot_due()) return false;
  try {
    retry_write([&] {
      durable::write_snapshot_file(snapshot_path_, graph.snapshot_full(),
                                   counters, options_.fsync, faults_);
    });
  } catch (const CrashError&) {
    throw;
  } catch (const Error& e) {
    // A failed snapshot never loses data: the WAL still covers every
    // committed batch. Skip this interval and try again at the next commit.
    warn(nullptr, std::string("snapshot skipped: ") + e.what());
    m_failures.add();
    return false;
  }
  commits_since_snapshot_ = 0;
  try {
    // Compaction: the snapshot was written right after a commit, so every
    // WAL record is covered by it — drop the whole prefix.
    ensure_writer();
    writer_->truncate(0);
    m_compactions.add();
  } catch (const Error& e) {
    // The snapshot covers every record, so recovery's seq filter ignores
    // whatever the failed cut left; but the log's length is now unknown, so
    // the writer takes no more appends (fail-stop, wal::Writer::append).
    warn(nullptr, std::string("WAL compaction skipped: ") + e.what());
  }
  return true;
}

}  // namespace gcsm
