// Crash-durability suite (docs/ROBUSTNESS.md, "Durability & recovery").
//
// The contract under test: with a WAL directory configured, a process that
// dies at ANY point — mid-WAL-append, pre-fsync, mid-snapshot-write — and
// restarts with recover-on-start produces cumulative match counts
// BIT-IDENTICAL to an uninterrupted run, and a corrupted WAL tail is
// truncated with a warning instead of refusing to start. The injected
// CrashError is the in-process analog of kill -9: the pipeline object is
// destroyed with no cleanup and a fresh one recovers from disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/durable_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/wal.hpp"

namespace gcsm {
namespace {

// pool / batch must cover kBatches below: 256 / 32 = exactly 8 batches.
// (Indexing past stream.batches.size() is UB the sanitizers cannot see —
// the vector's capacity usually exceeds its size.)
struct StreamFixture {
  explicit StreamFixture(int seed, VertexId n = 300, std::size_t batch = 32,
                         std::size_t pool = 256) {
    Rng rng(seed);
    base = generate_barabasi_albert(n, 4, 2, rng);
    UpdateStreamOptions opt;
    opt.pool_edge_count = pool;
    opt.batch_size = batch;
    opt.seed = seed + 1;
    stream = make_update_stream(base, opt);
  }
  CsrGraph base;
  UpdateStream stream;
};

// A unique directory per call, under gtest's temp root. The counter restarts
// with the process, so a previous run's WAL/snapshot may still sit at the
// same path — durable state that recovery would faithfully (and confusingly)
// resurrect. Scrub it first.
std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = std::string(::testing::TempDir()) + "gcsm_dur_" +
                          tag + "_" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  io::ensure_dir(dir);
  return dir;
}

// Match-count equality against a non-durable baseline: every counter except
// last_seq, which only durable runs assign.
void expect_counts(const durable::DurableCounters& got,
                   const durable::DurableCounters& want) {
  EXPECT_EQ(got.batches_committed, want.batches_committed);
  EXPECT_EQ(got.cum_signed, want.cum_signed);
  EXPECT_EQ(got.cum_positive, want.cum_positive);
  EXPECT_EQ(got.cum_negative, want.cum_negative);
}

PipelineOptions durable_options(const std::string& dir,
                                FaultInjector* inj = nullptr,
                                EngineKind kind = EngineKind::kCpu) {
  PipelineOptions opt;
  opt.kind = kind;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 512;
  opt.recovery.backoff_initial_ms = 0.0;
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 3;
  opt.durability.recover_on_start = true;
  opt.durability.fsync = false;  // protocol + fault sites identical, no I/O tax
  opt.fault_injector = inj;
  return opt;
}

// Uninterrupted non-durable reference run over the first `k` batches.
durable::DurableCounters baseline_counters(const StreamFixture& fx,
                                           const QueryGraph& query,
                                           std::size_t k,
                                           std::vector<Edge>* edges = nullptr) {
  PipelineOptions opt = durable_options("");
  opt.durability.wal_dir.clear();
  Pipeline p(fx.stream.initial, query, opt);
  for (std::size_t i = 0; i < k; ++i) p.process_batch(fx.stream.batches[i]);
  if (edges != nullptr) *edges = p.graph().to_csr().edge_list();
  return p.cumulative();
}

void corrupt_byte(const std::string& path, std::size_t offset_from_end) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -static_cast<long>(offset_from_end), SEEK_END);
  const int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// CRC32C and the low-level encoders.

TEST(DurableIo, Crc32cKnownAnswer) {
  // The canonical CRC32C check value (RFC 3720 appendix / Castagnoli).
  EXPECT_EQ(io::crc32c("123456789"), 0xE3069283U);
  EXPECT_EQ(io::crc32c(""), 0U);
}

TEST(DurableIo, Crc32cChains) {
  const std::string a = "hello ";
  const std::string b = "world";
  EXPECT_EQ(io::crc32c(b, io::crc32c(a)), io::crc32c(a + b));
}

TEST(DurableIo, ByteReaderFlagsUnderrun) {
  std::string buf;
  io::put_u32(buf, 7);
  io::ByteReader r(buf);
  EXPECT_EQ(r.get_u32(), 7U);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.get_u64(), 0U);  // underrun: returns 0, flags not-ok
  EXPECT_FALSE(r.ok());
}

TEST(DurableIo, AtomicWriteReplacesWholeFile) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/doc.txt";
  io::atomic_write_file(path, "first version", false);
  io::atomic_write_file(path, "v2", false);
  EXPECT_EQ(io::read_file_if_exists(path).value_or(""), "v2");
}

// ---------------------------------------------------------------------------
// WAL record format, torn tails, corruption.

TEST(Wal, RoundTrip) {
  const std::string path = fresh_dir("roundtrip") + "/gcsm.wal";
  {
    wal::Writer w(path, /*sync=*/false);
    w.append(wal::RecordType::kBatch, 1, "payload-one");
    w.append(wal::RecordType::kCommit, 1, "");
    w.append(wal::RecordType::kBatch, 2, std::string(1000, 'x'));
    w.sync();
  }
  const wal::ReadResult r = wal::read_all(path);
  EXPECT_FALSE(r.tail_damaged);
  ASSERT_EQ(r.records.size(), 3U);
  EXPECT_EQ(r.records[0].type, wal::RecordType::kBatch);
  EXPECT_EQ(r.records[0].seq, 1U);
  EXPECT_EQ(r.records[0].payload, "payload-one");
  EXPECT_EQ(r.records[1].type, wal::RecordType::kCommit);
  EXPECT_EQ(r.records[2].payload.size(), 1000U);
}

TEST(Wal, MissingFileIsCleanEmpty) {
  const wal::ReadResult r = wal::read_all(fresh_dir("nofile") + "/gcsm.wal");
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.tail_damaged);
  EXPECT_EQ(r.valid_bytes, 0U);
}

TEST(Wal, TornTailDetectedAndTruncated) {
  const std::string path = fresh_dir("torn") + "/gcsm.wal";
  std::uint64_t clean_bytes = 0;
  {
    wal::Writer w(path, false);
    w.append(wal::RecordType::kBatch, 1, "intact");
    clean_bytes = w.bytes_appended();
    // A torn append: only a prefix of the next record reached the disk.
    const std::string rec =
        wal::encode_record(wal::RecordType::kBatch, 2, "never-finished");
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(rec.data(), 1, rec.size() / 2, f);
    std::fclose(f);
  }
  wal::ReadResult r = wal::read_all(path);
  EXPECT_TRUE(r.tail_damaged);
  EXPECT_EQ(r.valid_bytes, clean_bytes);
  ASSERT_EQ(r.records.size(), 1U);
  EXPECT_EQ(r.records[0].payload, "intact");

  // Recovery's repair: truncate to the clean prefix, then the log is clean.
  wal::truncate_log(path, r.valid_bytes);
  r = wal::read_all(path);
  EXPECT_FALSE(r.tail_damaged);
  EXPECT_EQ(r.records.size(), 1U);
}

TEST(Wal, BitFlippedCrcStopsAtTheDamage) {
  const std::string path = fresh_dir("bitflip") + "/gcsm.wal";
  {
    wal::Writer w(path, false);
    w.append(wal::RecordType::kBatch, 1, "aaaa");
    w.append(wal::RecordType::kBatch, 2, "bbbb");
  }
  corrupt_byte(path, 2);  // inside record 2's payload -> its CRC fails
  const wal::ReadResult r = wal::read_all(path);
  EXPECT_TRUE(r.tail_damaged);
  EXPECT_NE(r.tail_reason.find("CRC"), std::string::npos);
  ASSERT_EQ(r.records.size(), 1U);
  EXPECT_EQ(r.records[0].payload, "aaaa");
}

TEST(Wal, CrashAtTearsTheAppend) {
  const std::string path = fresh_dir("crash") + "/gcsm.wal";
  FaultInjector inj(5);
  inj.arm(fault_site::kCrashAt, {0.0, 1, 10});  // 10 bytes reach the file
  {
    wal::Writer w(path, false, &inj);
    EXPECT_THROW(w.append(wal::RecordType::kBatch, 1, "doomed"), CrashError);
  }
  const auto bytes = io::read_file_if_exists(path);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(bytes->size(), 10U);
  const wal::ReadResult r = wal::read_all(path);
  EXPECT_TRUE(r.tail_damaged);
  EXPECT_TRUE(r.records.empty());
}

TEST(Wal, ArmAllNeverSchedulesACrash) {
  FaultInjector inj(6);
  inj.arm_all(1.0);  // every site fires always ... except crash.at
  EXPECT_FALSE(inj.fires_spec(fault_site::kCrashAt).has_value());
  EXPECT_TRUE(inj.fires(fault_site::kWalWrite));
}

// ---------------------------------------------------------------------------
// Snapshot serialization.

TEST(Snapshot, RoundTripPreservesPendingReorgState) {
  StreamFixture fx(11);
  DynamicGraph g(fx.stream.initial);
  g.apply_batch(fx.stream.batches[0]);  // NOT reorganized: tombstones +
  ASSERT_TRUE(g.has_pending_batch());   // appended runs + touched set live

  durable::DurableCounters counters;
  counters.batches_committed = 1;
  counters.last_seq = 1;
  counters.cum_signed = -3;
  const std::string bytes = durable::encode_snapshot(g.snapshot_full(),
                                                     counters);
  std::string why;
  const auto loaded = durable::decode_snapshot(bytes, &why);
  ASSERT_TRUE(loaded.has_value()) << why;
  EXPECT_EQ(loaded->counters, counters);

  DynamicGraph restored(fx.stream.initial);
  restored.restore(loaded->graph);
  restored.validate();
  EXPECT_TRUE(restored.has_pending_batch());
  EXPECT_EQ(restored.num_live_edges(), g.num_live_edges());
  EXPECT_EQ(restored.to_csr().edge_list(), g.to_csr().edge_list());

  // The restored graph must be operationally identical, not just equal now:
  // reorganizing both yields the same compacted lists.
  g.reorganize();
  restored.reorganize();
  restored.validate();
  EXPECT_EQ(restored.to_csr().edge_list(), g.to_csr().edge_list());
}

TEST(Snapshot, CorruptFileRejectedNotDeserialized) {
  StreamFixture fx(12);
  DynamicGraph g(fx.stream.initial);
  const std::string path = fresh_dir("snapcorrupt") + "/graph.snap";
  durable::write_snapshot_file(path, g.snapshot_full(), {}, false);
  ASSERT_TRUE(durable::load_snapshot_file(path).has_value());

  corrupt_byte(path, 40);
  std::string why;
  EXPECT_FALSE(durable::load_snapshot_file(path, &why).has_value());
  EXPECT_NE(why.find("CRC"), std::string::npos);
}

TEST(Snapshot, CrashDuringWriteKeepsThePreviousSnapshot) {
  StreamFixture fx(13);
  DynamicGraph g(fx.stream.initial);
  const std::string path = fresh_dir("snapcrash") + "/graph.snap";
  durable::DurableCounters v1;
  v1.batches_committed = 7;
  durable::write_snapshot_file(path, g.snapshot_full(), v1, false);

  g.apply_batch(fx.stream.batches[0]);
  FaultInjector inj(9);
  inj.arm(fault_site::kCrashAt, {0.0, 1, 100});
  durable::DurableCounters v2;
  v2.batches_committed = 8;
  EXPECT_THROW(
      durable::write_snapshot_file(path, g.snapshot_full(), v2, false, &inj),
      CrashError);

  // The rename never happened: readers still see v1, whole and valid.
  const auto loaded = durable::load_snapshot_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->counters.batches_committed, 7U);
}

TEST(Snapshot, BatchPayloadRoundTrip) {
  EdgeBatch batch;
  batch.updates = {{1, 2, +1}, {3, 4, -1}, {0, 5, +1}};
  batch.new_vertex_labels = {{5, 3}};
  const auto decoded = durable::decode_batch(durable::encode_batch(batch));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->updates, batch.updates);
  EXPECT_EQ(decoded->new_vertex_labels, batch.new_vertex_labels);
  EXPECT_FALSE(durable::decode_batch("garbage").has_value());
}

// ---------------------------------------------------------------------------
// Exit-code contract (docs/ROBUSTNESS.md).

TEST(ExitCodes, FollowTheDocumentedContract) {
  EXPECT_EQ(exit_code_for(ErrorCode::kConfig), 2);
  EXPECT_EQ(exit_code_for(ErrorCode::kIoParse), 2);
  EXPECT_EQ(exit_code_for(ErrorCode::kDeviceOom), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kDeviceDma), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kKernelLaunch), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kKernelTimeout), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kIoOpen), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kBatchRejected), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kRecovery), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kCrash), 1);
}

// ---------------------------------------------------------------------------
// Pipeline-level durability.

constexpr std::size_t kBatches = 8;

TEST(Durability, ColdStartOnEmptyDirIsANoOp) {
  StreamFixture fx(21);
  const QueryGraph query = make_triangle();
  Pipeline p(fx.stream.initial, query,
             durable_options(fresh_dir("cold")));
  EXPECT_FALSE(p.recovery_info().snapshot_loaded);
  EXPECT_TRUE(p.recovery_info().replay.empty());
  p.process_batch(fx.stream.batches[0]);
  EXPECT_EQ(p.cumulative().batches_committed, 1U);
  EXPECT_EQ(p.cumulative().last_seq, 1U);
}

TEST(Durability, CleanRestartReproducesCountsAndGraph) {
  StreamFixture fx(22);
  ASSERT_GE(fx.stream.batches.size(), kBatches);
  const QueryGraph query = make_triangle();
  std::vector<Edge> baseline_edges;
  const durable::DurableCounters expect =
      baseline_counters(fx, query, kBatches, &baseline_edges);

  const std::string dir = fresh_dir("restart");
  durable::DurableCounters half;
  {
    Pipeline p(fx.stream.initial, query, durable_options(dir));
    for (std::size_t k = 0; k < 5; ++k) p.process_batch(fx.stream.batches[k]);
    half = p.cumulative();
  }
  // Restart: snapshot (interval 3 -> written at batch 3) + WAL replay of
  // batches 4..5, then the client resumes from batches_committed.
  Pipeline p(fx.stream.initial, query, durable_options(dir));
  EXPECT_EQ(p.cumulative(), half);
  EXPECT_TRUE(p.recovery_info().snapshot_loaded);
  EXPECT_FALSE(p.recovery_info().replay.empty());
  for (std::size_t k = p.cumulative().batches_committed; k < kBatches; ++k) {
    p.process_batch(fx.stream.batches[k]);
  }
  EXPECT_EQ(p.cumulative().batches_committed, expect.batches_committed);
  EXPECT_EQ(p.cumulative().cum_signed, expect.cum_signed);
  EXPECT_EQ(p.cumulative().cum_positive, expect.cum_positive);
  EXPECT_EQ(p.cumulative().cum_negative, expect.cum_negative);
  EXPECT_EQ(p.graph().to_csr().edge_list(), baseline_edges);
}

TEST(Durability, CleanRestartOnGcsmEngineToo) {
  // The durable guarantee is engine-independent: match counts never depend
  // on what the cache holds, so recovery under the full GCSM path (estimator
  // + DCSR cache) reproduces them bit-identically as well.
  StreamFixture fx(23);
  const QueryGraph query = make_triangle();
  const durable::DurableCounters expect = baseline_counters(fx, query, 6);

  const std::string dir = fresh_dir("gcsm");
  {
    Pipeline p(fx.stream.initial, query,
               durable_options(dir, nullptr, EngineKind::kGcsm));
    for (std::size_t k = 0; k < 4; ++k) p.process_batch(fx.stream.batches[k]);
  }
  Pipeline p(fx.stream.initial, query,
             durable_options(dir, nullptr, EngineKind::kGcsm));
  for (std::size_t k = p.cumulative().batches_committed; k < 6; ++k) {
    p.process_batch(fx.stream.batches[k]);
  }
  EXPECT_EQ(p.cumulative().cum_signed, expect.cum_signed);
  EXPECT_EQ(p.cumulative().cum_positive, expect.cum_positive);
  EXPECT_EQ(p.cumulative().cum_negative, expect.cum_negative);
}

// Drives the stream to completion against one crash scheduled at the nth
// crash.at hit with the given torn-byte offset, restarting with recovery
// after the "kill". Returns how many crashes actually fired.
int run_with_scheduled_crash(const StreamFixture& fx, const QueryGraph& query,
                             const std::string& dir, std::uint64_t nth,
                             std::uint64_t byte,
                             durable::DurableCounters* out,
                             std::vector<Edge>* edges) {
  FaultInjector inj(31);
  inj.arm(fault_site::kCrashAt, {0.0, nth, byte});
  int crashes = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    try {
      Pipeline p(fx.stream.initial, query, durable_options(dir, &inj));
      // Exactly-once resumption: submit from the committed count onward.
      for (std::size_t k = p.cumulative().batches_committed; k < kBatches;
           ++k) {
        p.process_batch(fx.stream.batches[k]);
      }
      *out = p.cumulative();
      *edges = p.graph().to_csr().edge_list();
      return crashes;
    } catch (const CrashError&) {
      ++crashes;  // the pipeline died mid-write; loop restarts + recovers
    }
  }
  ADD_FAILURE() << "crash storm: nth=" << nth << " byte=" << byte;
  return crashes;
}

TEST(Durability, CrashMatrixEveryWalAndSnapshotSiteRecovers) {
  StreamFixture fx(24);
  ASSERT_GE(fx.stream.batches.size(), kBatches);
  const QueryGraph query = make_triangle();
  std::vector<Edge> baseline_edges;
  const durable::DurableCounters expect =
      baseline_counters(fx, query, kBatches, &baseline_edges);

  // Sweep the crash over every crash.at probe an uninterrupted run makes
  // (WAL appends, pre-fsync points, the snapshot temp-file write), at three
  // torn-write offsets: nothing written, a torn header, a torn payload.
  int cases = 0;
  for (const std::uint64_t byte : {0U, 11U, 64U}) {
    for (std::uint64_t nth = 1;; ++nth) {
      const std::string dir =
          fresh_dir("matrix_" + std::to_string(byte) + "_" +
                    std::to_string(nth));
      durable::DurableCounters got;
      std::vector<Edge> got_edges;
      const int crashes =
          run_with_scheduled_crash(fx, query, dir, nth, byte, &got,
                                   &got_edges);
      ASSERT_EQ(got.batches_committed, expect.batches_committed)
          << "nth=" << nth << " byte=" << byte;
      ASSERT_EQ(got.cum_signed, expect.cum_signed)
          << "nth=" << nth << " byte=" << byte;
      ASSERT_EQ(got.cum_positive, expect.cum_positive)
          << "nth=" << nth << " byte=" << byte;
      ASSERT_EQ(got.cum_negative, expect.cum_negative)
          << "nth=" << nth << " byte=" << byte;
      ASSERT_EQ(got_edges, baseline_edges)
          << "nth=" << nth << " byte=" << byte;
      ++cases;
      // Once nth exceeds the number of probes a full run makes, no crash
      // fires and the sweep is complete for this offset.
      if (crashes == 0) break;
      ASSERT_LT(nth, 200U) << "sweep did not terminate";
    }
  }
  // The matrix must have actually crashed somewhere (several sites per
  // batch, times kBatches), or the sweep tested nothing.
  EXPECT_GT(cases, 3 * static_cast<int>(kBatches));
}

TEST(Durability, CorruptedWalTailIsTruncatedWithWarningNotFatal) {
  StreamFixture fx(25);
  ASSERT_GE(fx.stream.batches.size(), kBatches);
  const QueryGraph query = make_triangle();
  std::vector<Edge> baseline_edges;
  const durable::DurableCounters expect =
      baseline_counters(fx, query, kBatches, &baseline_edges);

  const std::string dir = fresh_dir("tail");
  PipelineOptions opt = durable_options(dir);
  opt.durability.snapshot_interval = 0;  // keep the whole history in the WAL
  {
    Pipeline p(fx.stream.initial, query, opt);
    for (std::size_t k = 0; k < kBatches; ++k) {
      p.process_batch(fx.stream.batches[k]);
    }
  }
  // External corruption: a flipped bit in the final commit marker. Recovery
  // must truncate it, replay the intact prefix, and keep going.
  corrupt_byte(dir + "/gcsm.wal", 3);

  Pipeline p(fx.stream.initial, query, opt);
  EXPECT_TRUE(p.recovery_info().wal_tail_truncated);
  EXPECT_NE(p.recovery_info().warning.find("WAL tail damaged"),
            std::string::npos);
  EXPECT_EQ(p.cumulative().batches_committed, kBatches - 1);
  // The last batch's record lost its commit: dropped, then re-submitted.
  EXPECT_EQ(p.recovery_info().dropped_uncommitted, 1U);
  for (std::size_t k = p.cumulative().batches_committed; k < kBatches; ++k) {
    p.process_batch(fx.stream.batches[k]);
  }
  EXPECT_EQ(p.cumulative().cum_signed, expect.cum_signed);
  EXPECT_EQ(p.cumulative().cum_positive, expect.cum_positive);
  EXPECT_EQ(p.graph().to_csr().edge_list(), baseline_edges);
}

TEST(Durability, StaleSnapshotPlusLongerWalReplaysTheSuffix) {
  StreamFixture fx(26);
  const QueryGraph query = make_triangle();
  const std::string dir = fresh_dir("stale");
  PipelineOptions opt = durable_options(dir);
  opt.durability.snapshot_interval = 4;
  {
    Pipeline p(fx.stream.initial, query, opt);
    for (std::size_t k = 0; k < 7; ++k) p.process_batch(fx.stream.batches[k]);
  }
  // Snapshot covers batches 1..4; the WAL holds committed batches 5..7.
  Pipeline p(fx.stream.initial, query, opt);
  EXPECT_TRUE(p.recovery_info().snapshot_loaded);
  EXPECT_EQ(p.recovery_info().counters.batches_committed, 4U);
  EXPECT_EQ(p.recovery_info().replay.size(), 3U);
  EXPECT_EQ(p.cumulative().batches_committed, 7U);
  expect_counts(p.cumulative(), baseline_counters(fx, query, 7));
}

TEST(Durability, TransientWalFaultsAreRetriedInternally) {
  StreamFixture fx(27);
  const QueryGraph query = make_triangle();
  FaultInjector inj(41);
  // One refused append and one refused fsync, at deterministic hits; the
  // manager's bounded retry absorbs both without surfacing an error or
  // duplicating records.
  inj.arm(fault_site::kWalWrite, {0.0, 3});
  inj.arm(fault_site::kWalFsync, {0.0, 5});
  Pipeline p(fx.stream.initial, query,
             durable_options(fresh_dir("transient"), &inj));
  for (std::size_t k = 0; k < 4; ++k) p.process_batch(fx.stream.batches[k]);
  EXPECT_EQ(p.cumulative().batches_committed, 4U);
  expect_counts(p.cumulative(), baseline_counters(fx, query, 4));
}

// A commit whose fsync fails for good reports the batch as failed, so the
// client re-submits it under a new seq. The failed commit's marker must not
// stay in the log, or recovery would replay the batch twice.
TEST(Durability, FailedCommitFsyncLeavesNoMarkerToReplay) {
  StreamFixture fx(30);
  const QueryGraph query = make_triangle();
  const std::string dir = fresh_dir("commitfsync");
  FaultInjector inj(43);
  // Hit 1 is batch 0's record fsync, hit 2 its commit's fsync.
  inj.arm(fault_site::kWalFsync, {0.0, 2});
  PipelineOptions opt = durable_options(dir, &inj);
  opt.durability.max_write_attempts = 1;
  opt.durability.snapshot_interval = 0;
  {
    Pipeline p(fx.stream.initial, query, opt);
    EXPECT_THROW(p.process_batch(fx.stream.batches[0]), Error);
    EXPECT_EQ(p.cumulative().batches_committed, 0U);
    for (std::size_t k = 0; k < 3; ++k) p.process_batch(fx.stream.batches[k]);
  }
  opt.fault_injector = nullptr;
  const Pipeline p(fx.stream.initial, query, opt);
  EXPECT_EQ(p.recovery_info().replay.size(), 3U);
  expect_counts(p.cumulative(), baseline_counters(fx, query, 3));
}

// An append that fails part-way leaves a torn prefix of its record in the
// log. The retry must not append the whole record after those bytes:
// recovery stops at the first torn record and would drop every later one,
// commit markers included.
TEST(Durability, PartialWalAppendIsCutBeforeTheRetry) {
  StreamFixture fx(32);
  const QueryGraph query = make_triangle();
  const std::string dir = fresh_dir("partial");
  FaultInjector inj(44);
  // Hit 3 is batch 1's record (hits 1 and 2 are batch 0's record and
  // marker); 11 of its bytes reach the file before the refusal.
  inj.arm(fault_site::kWalWrite, {0.0, 3, 11});
  PipelineOptions opt = durable_options(dir, &inj);
  opt.durability.snapshot_interval = 0;  // no compaction hides the tear
  {
    Pipeline p(fx.stream.initial, query, opt);
    for (std::size_t k = 0; k < 4; ++k) p.process_batch(fx.stream.batches[k]);
  }
  ASSERT_EQ(inj.fired_count(), 1U);
  opt.fault_injector = nullptr;
  const Pipeline p(fx.stream.initial, query, opt);
  EXPECT_FALSE(p.recovery_info().wal_tail_truncated);
  EXPECT_EQ(p.recovery_info().replay.size(), 4U);
  std::vector<Edge> edges;
  expect_counts(p.cumulative(), baseline_counters(fx, query, 4, &edges));
  EXPECT_EQ(p.graph().to_csr().edge_list(), edges);
}

// ---------------------------------------------------------------------------
// Durable streams (multi-query process_stream): each batch commits as in
// process_batch, and its results surface right after its commit. A kill at
// ANY WAL write/fsync probe — the batch records, the commit markers, the
// snapshot compactions — must recover bit-identical to an uninterrupted
// run. A crashed commit is re-exposed: its batch record lacks a durable
// marker, so the client re-submits from batches_committed.

server::MultiQueryOptions stream_options(const std::string& dir,
                                         FaultInjector* inj) {
  server::MultiQueryOptions opt;
  opt.kind = EngineKind::kCpu;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 512;
  opt.recovery.backoff_initial_ms = 0.0;
  opt.durability.wal_dir = dir;
  opt.durability.snapshot_interval = 3;
  opt.durability.recover_on_start = true;
  opt.durability.fsync = false;  // protocol + fault sites identical
  opt.fault_injector = inj;
  return opt;
}

TEST(Durability, StreamCrashMatrixRecoversAtEveryProbe) {
  StreamFixture fx(29);
  ASSERT_GE(fx.stream.batches.size(), kBatches);

  // Synchronous (serial process_batch) baseline, no durability: what every
  // crashed-and-recovered stream must reproduce exactly.
  server::MultiQueryEngine ref(fx.stream.initial, stream_options("", nullptr));
  ref.register_query(make_triangle());
  ref.register_query(make_path(4));
  durable::DurableCounters want;
  for (std::size_t k = 0; k < kBatches; ++k) {
    const server::ServerBatchReport r =
        ref.process_batch(fx.stream.batches[k]);
    want.batches_committed += 1;
    want.cum_signed += r.shared.stats.signed_embeddings;
    want.cum_positive += r.shared.stats.positive;
    want.cum_negative += r.shared.stats.negative;
  }
  const std::vector<Edge> want_edges = ref.graph().to_csr().edge_list();

  int cases = 0;
  int total_crashes = 0;
  for (std::uint64_t nth = 1;; ++nth) {
    const std::string dir = fresh_dir("stream_" + std::to_string(nth));
    FaultInjector inj(33);
    inj.arm(fault_site::kCrashAt, {0.0, nth, 11});
    int crashes = 0;
    durable::DurableCounters got;
    std::vector<Edge> got_edges;
    bool finished = false;
    for (int lives = 0; lives < 12 && !finished; ++lives) {
      try {
        server::MultiQueryEngine engine(fx.stream.initial,
                                        stream_options(dir, &inj));
        // A crash can land between the two registrations; top the
        // recovered registry back up to the full set.
        if (engine.registry().empty()) {
          engine.register_query(make_triangle());
        }
        if (engine.registry().size() < 2) {
          engine.register_query(make_path(4));
        }
        // Exactly-once resumption: re-submit everything not durably
        // committed.
        const std::size_t from = engine.cumulative().batches_committed;
        engine.process_stream(
            {fx.stream.batches.begin() + static_cast<std::ptrdiff_t>(from),
             fx.stream.batches.begin() + kBatches});
        got = engine.cumulative();
        got_edges = engine.graph().to_csr().edge_list();
        finished = true;
      } catch (const CrashError&) {
        ++crashes;  // killed mid-write; restart + recover
      }
    }
    ASSERT_TRUE(finished) << "crash storm: nth=" << nth;
    ASSERT_EQ(got.batches_committed, want.batches_committed) << "nth=" << nth;
    ASSERT_EQ(got.cum_signed, want.cum_signed) << "nth=" << nth;
    ASSERT_EQ(got.cum_positive, want.cum_positive) << "nth=" << nth;
    ASSERT_EQ(got.cum_negative, want.cum_negative) << "nth=" << nth;
    ASSERT_EQ(got_edges, want_edges) << "nth=" << nth;
    ++cases;
    total_crashes += crashes;
    // nth beyond the probe count of a full run: the sweep is complete.
    if (crashes == 0) break;
    ASSERT_LT(nth, 300U) << "sweep did not terminate";
  }
  // The matrix must actually have killed the stream somewhere, or it
  // tested nothing.
  EXPECT_GT(cases, 3 * static_cast<int>(kBatches));
  EXPECT_GT(total_crashes, 0);
}

// A stream whose commit fsync fails for good fails like process_batch: the
// batch rolls back, its marker is cut from the log, and every batch that
// committed before it has been surfaced. The same engine then takes the
// re-submitted remainder, and recovery sees each batch once.
TEST(Durability, FailedStreamCommitFsyncKeepsTheEngineServing) {
  StreamFixture fx(34);
  ASSERT_GE(fx.stream.batches.size(), kBatches);
  const QueryGraph query = make_triangle();
  std::vector<Edge> want_edges;
  const durable::DurableCounters want =
      baseline_counters(fx, query, kBatches, &want_edges);

  const std::string dir = fresh_dir("streamfsync");
  FaultInjector inj(45);
  // Each batch fsyncs its record, then its commit: hit 8 is the commit of
  // batch 3, the last batch of the first stream.
  inj.arm(fault_site::kWalFsync, {0.0, 8});
  server::MultiQueryOptions opt = stream_options(dir, &inj);
  opt.durability.max_write_attempts = 1;
  const auto first = fx.stream.batches.begin();
  {
    server::MultiQueryEngine engine(fx.stream.initial, opt);
    engine.register_query(query);
    std::size_t surfaced = 0;
    const auto count = [&](server::ServerBatchReport&&) { ++surfaced; };
    EXPECT_THROW(engine.process_stream({first, first + 4}, count), Error);
    EXPECT_EQ(engine.cumulative().batches_committed, 3U);
    EXPECT_EQ(surfaced, 3U);
    const auto from =
        static_cast<std::ptrdiff_t>(engine.cumulative().batches_committed);
    engine.process_stream({first + from, first + kBatches}, count);
    EXPECT_EQ(surfaced, kBatches);
  }
  opt.fault_injector = nullptr;
  const server::MultiQueryEngine back(fx.stream.initial, opt);
  expect_counts(back.cumulative(), want);
  EXPECT_EQ(back.graph().to_csr().edge_list(), want_edges);
}

TEST(Durability, RecoverOnStartOffDiscardsStaleState) {
  StreamFixture fx(28);
  const QueryGraph query = make_triangle();
  const std::string dir = fresh_dir("fresh");
  {
    Pipeline p(fx.stream.initial, query, durable_options(dir));
    for (std::size_t k = 0; k < 4; ++k) p.process_batch(fx.stream.batches[k]);
  }
  PipelineOptions opt = durable_options(dir);
  opt.durability.recover_on_start = false;
  {
    Pipeline p(fx.stream.initial, query, opt);
    EXPECT_EQ(p.cumulative().batches_committed, 0U);
    p.process_batch(fx.stream.batches[0]);
  }
  // A later recovering start must see only the fresh run's history.
  Pipeline p(fx.stream.initial, query, durable_options(dir));
  EXPECT_EQ(p.cumulative().batches_committed, 1U);
  expect_counts(p.cumulative(), baseline_counters(fx, query, 1));
}

// ---------------------------------------------------------------------------
// The WAL every engine writes, pinned record by record: engine label, record
// type, seq, payload size and the payload's CRC32C, in
// tests/golden/wal_records.txt. A change to the commit path must leave the
// file byte-identical. fsync is off and snapshot_interval is 0, so nothing is
// compacted away. On a mismatch the produced pins are written to the test
// temp directory, so a deliberate change can be reviewed and copied over.

// 6 batches of 64 updates over a 300-vertex BA graph with 2 labels.
constexpr std::size_t kPinBatches = 6;

DurabilityOptions pin_durability(const std::string& dir) {
  DurabilityOptions d;
  d.wal_dir = dir;
  d.snapshot_interval = 0;
  d.recover_on_start = false;
  d.fsync = false;
  return d;
}

// One line per record of <dir>/gcsm.wal, in log order or, when `by_seq`,
// sorted by (seq, type).
std::string wal_pins(const std::string& label, const std::string& dir,
                     bool by_seq) {
  std::vector<wal::Record> records = wal::read_all(dir + "/gcsm.wal").records;
  if (by_seq) {
    std::stable_sort(records.begin(), records.end(),
                     [](const wal::Record& a, const wal::Record& b) {
                       return std::tie(a.seq, a.type) < std::tie(b.seq, b.type);
                     });
  }
  std::string out;
  for (const wal::Record& rec : records) {
    char line[128];
    std::snprintf(line, sizeof line, " type=%d seq=%llu bytes=%zu crc=%08x\n",
                  static_cast<int>(rec.type),
                  static_cast<unsigned long long>(rec.seq), rec.payload.size(),
                  static_cast<unsigned>(io::crc32c(rec.payload)));
    out += label + line;
  }
  return out;
}

server::MultiQueryOptions pin_multi_options(const std::string& dir) {
  server::MultiQueryOptions opt;
  opt.kind = EngineKind::kGcsm;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 256;
  opt.recovery.backoff_initial_ms = 0.0;
  opt.durability = pin_durability(dir);
  opt.match_parallelism = 1;
  return opt;
}

TEST(Durability, EveryEngineWritesThePinnedWalRecords) {
  StreamFixture fx(61, 300, 64, 384);
  ASSERT_EQ(fx.stream.batches.size(), kPinBatches);
  std::string pins;

  {
    const std::string dir = fresh_dir("pin_pipeline");
    PipelineOptions opt = durable_options(dir, nullptr, EngineKind::kGcsm);
    opt.durability = pin_durability(dir);
    Pipeline p(fx.stream.initial, make_triangle(), opt);
    for (const EdgeBatch& b : fx.stream.batches) p.process_batch(b);
    pins += wal_pins("pipeline", dir, false);
  }
  {
    const std::string dir = fresh_dir("pin_sharded");
    shard::ShardedEngineOptions opt;
    opt.num_shards = 4;
    opt.partition = shard::PartitionStrategy::kHash;
    opt.cache_budget_bytes = 4 << 20;
    opt.estimator.num_walks = 256;
    opt.recovery.backoff_initial_ms = 0.0;
    opt.durability = pin_durability(dir);
    shard::ShardedMatchEngine engine(fx.stream.initial, opt);
    engine.register_query(make_triangle());
    engine.register_query(make_path(4));
    for (const EdgeBatch& b : fx.stream.batches) engine.process_batch(b);
    pins += wal_pins("sharded", dir, false);
  }
  {
    // Batch 1 trips path(4) (one kServerState record), a shed consumes the
    // seq after batch 2 (one kShed record), and batch 3's probe re-joins the
    // query through exact catch-up across that shed (a second kServerState).
    const std::string dir = fresh_dir("pin_mqe_batch");
    FaultInjector inj(61);
    server::MultiQueryOptions opt = pin_multi_options(dir);
    opt.breaker.trip_after_failures = 1;
    opt.breaker.cooldown_batches = 1;
    opt.fault_injector = &inj;
    server::MultiQueryEngine engine(fx.stream.initial, opt);
    engine.register_query(make_triangle());
    const server::QueryId path = engine.register_query(make_path(4));
    for (std::size_t k = 0; k < kPinBatches; ++k) {
      if (k == 1) {
        FaultSpec poison;
        poison.probability = 1.0;
        poison.match_query_id = path;
        inj.arm(fault_site::kMatchQuery, poison);
      }
      const server::ServerBatchReport r =
          engine.process_batch(fx.stream.batches[k]);
      if (k == 1) {
        inj.disarm(fault_site::kMatchQuery);
        EXPECT_TRUE(r.queries[1].tripped);
      }
      if (k == 2) engine.log_shed_batch("shed-after-batch-2");
      if (k == 3) {
        EXPECT_TRUE(r.queries[1].rejoined);
      }
    }
    pins += wal_pins("mqe-batch", dir, false);
  }
  {
    const std::string dir = fresh_dir("pin_mqe_stream");
    server::MultiQueryOptions opt = pin_multi_options(dir);
    server::MultiQueryEngine engine(fx.stream.initial, opt);
    engine.register_query(make_triangle());
    engine.register_query(make_path(4));
    engine.process_stream(fx.stream.batches);
    pins += wal_pins("mqe-stream", dir, true);
  }

  const std::string path = std::string(GCSM_TEST_GOLDEN_DIR) + "/wal_records.txt";
  std::ifstream in(path);
  std::ostringstream want;
  want << in.rdbuf();
  if (pins == want.str()) return;
  const std::string actual = ::testing::TempDir() + "wal_records.txt";
  std::ofstream(actual) << pins;
  ADD_FAILURE() << "WAL pins differ from " << path
                << "; the produced pins are in " << actual << "\n"
                << pins;
}

}  // namespace
}  // namespace gcsm
