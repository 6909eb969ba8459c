// Append-only write-ahead log of update batches (docs/ROBUSTNESS.md,
// "Durability & recovery").
//
// Record format (little-endian, fixed 21-byte header then payload):
//
//   offset  size  field
//        0     4  magic   0x4C415747 ("GWAL")
//        4     1  type    1 = batch payload, 2 = commit marker,
//                         3 = server state (query-health transition),
//                         4 = shed marker (admission dropped the batch)
//        5     8  seq     batch sequence number (1-based, monotonic)
//       13     4  len     payload length in bytes
//       17     4  crc     CRC32C over bytes [0, 17) + payload
//       21   len  payload
//
// The writer appends records and fsyncs on commit boundaries; the reader
// validates every record and STOPS at the first torn or corrupt one — a
// crash mid-append can only damage the tail, so everything before it is
// intact by construction. Recovery truncates the damaged tail (with a
// logged warning) instead of refusing to start.
//
// Fault sites (util/fault.hpp): `wal.write` refuses a record write after
// FaultSpec::crash_at_byte of its bytes reached the file (none by default;
// the writer cuts them, so a retry is safe), `wal.fsync` fires before the
// fsync, and `crash.at` tears the write at FaultSpec::crash_at_byte and
// throws CrashError.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gcsm {

class FaultInjector;

namespace wal {

inline constexpr std::uint32_t kMagic = 0x4C415747U;  // "GWAL"
inline constexpr std::size_t kHeaderBytes = 21;
// Sanity cap on a single record payload: a corrupt length field must not
// make the reader chase gigabytes of garbage.
inline constexpr std::uint32_t kMaxPayloadBytes = 1U << 30;

// kServerState records carry a multi-query engine health-transition table
// (server/query_health.hpp): a circuit-breaker trip or re-join, sequenced
// against the batch stream so recovery can reconstruct which queries
// participated in which committed batches. Single-query pipelines never
// write them.
//
// kShed records are the overload controller's audit trail
// (docs/ROBUSTNESS.md, "Overload & admission control"): a batch the
// admission layer dropped under load. The record consumes a sequence number
// from the SAME space as kBatch — so the committed stream has an explicit,
// durable explanation for every seq gap — but it is never replayed, never
// gets a commit marker, and never advances the aggregate counters. Recovery
// reports shed seqs (RecoveredState::shed_seqs) instead of treating the gap
// as a missing batch.
enum class RecordType : std::uint8_t {
  kBatch = 1,
  kCommit = 2,
  kServerState = 3,
  kShed = 4,
};

struct Record {
  RecordType type = RecordType::kBatch;
  std::uint64_t seq = 0;
  std::string payload;
};

// Serializes one record (header + payload) into its on-disk bytes.
std::string encode_record(RecordType type, std::uint64_t seq,
                          std::string_view payload);

// Thread-safe: append/sync/truncate serialize on an internal mutex. Every
// engine writes its log from one thread today, so the mutex only guards
// against a future second writer.
class Writer {
 public:
  // Opens `path` for appending, creating it if needed. `sync` off skips the
  // fsync syscall (tests) but still probes the wal.fsync fault site.
  Writer(std::string path, bool sync, FaultInjector* faults = nullptr);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // Appends one record. Probes wal.write (a write that fails part-way:
  // transient Error) and crash.at (torn write + CrashError). Before an Error
  // other than CrashError leaves, the log is cut back to size(), so a retry
  // never appends after torn bytes. When that cut fails, a non-transient
  // Error leaves instead, and every later append throws it too.
  void append(RecordType type, std::uint64_t seq, std::string_view payload);

  // Flushes appended records to stable storage. Probes wal.fsync.
  void sync();

  // Truncates the log to `size` bytes and syncs the truncation: 0 when a
  // snapshot compaction dropped the whole prefix, the length before a
  // failed commit when its records must not replay.
  void truncate(std::uint64_t size);

  const std::string& path() const { return path_; }
  // The log's length: its size at open, plus every whole record appended
  // since, as cut back by truncate().
  std::uint64_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  std::uint64_t bytes_appended() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return bytes_appended_;
  }

 private:
  std::string path_;
  int fd_ = -1;
  bool sync_enabled_;
  bool dirty_ = false;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t size_ = 0;
  bool torn_tail_ = false;  // a failed append's bytes could not be cut
  FaultInjector* faults_;
  mutable std::mutex mu_;  // serializes append/sync/truncate across threads
};

struct ReadResult {
  std::vector<Record> records;
  // Offset of the first byte that failed validation; equals the file size
  // for a clean log.
  std::uint64_t valid_bytes = 0;
  bool tail_damaged = false;
  std::string tail_reason;  // human-readable, for the recovery warning
};

// Reads every valid record from the log. Missing file = empty clean result.
// Never throws on corruption: the damaged tail is reported, not fatal.
ReadResult read_all(const std::string& path);

// Truncates the log file to `valid_bytes` (recovery's tail repair).
void truncate_log(const std::string& path, std::uint64_t valid_bytes);

}  // namespace wal
}  // namespace gcsm
