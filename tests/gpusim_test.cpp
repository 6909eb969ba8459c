#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/page_cache.hpp"
#include "gpusim/simt_executor.hpp"
#include "util/error.hpp"

namespace gcsm::gpusim {
namespace {

// --------------------------------------------------------- cost model -----

TEST(CostModel, ZeroTrafficZeroTime) {
  const SimTime t = simulate_time(Traffic{}, SimParams{});
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(CostModel, DmaIncludesPerCallLatency) {
  SimParams p;
  p.dma_latency_us = 10.0;
  p.dma_bandwidth_gbps = 10.0;
  Traffic t;
  t.dma_calls = 3;
  t.dma_bytes = 10ull * 1000 * 1000 * 1000;  // 1 second at 10 GB/s
  const SimTime s = simulate_time(t, p);
  EXPECT_NEAR(s.dma, 1.0 + 3 * 10e-6, 1e-9);
}

TEST(CostModel, ZeroCopyChargesWholeLines) {
  SimParams p;
  p.zero_copy_line_bytes = 128;
  p.zero_copy_bandwidth_gbps = 1.0;  // 1 GB/s
  Traffic t;
  t.zero_copy_lines = 1000;
  t.zero_copy_bytes = 4;  // useful bytes are irrelevant to the cost
  const SimTime s = simulate_time(t, p);
  EXPECT_NEAR(s.zero_copy, 128e3 / 1e9, 1e-12);
}

TEST(CostModel, UmFaultDominatedByOverheadForSparseAccess) {
  SimParams p;
  Traffic t;
  t.um_faults = 100;
  const SimTime s = simulate_time(t, p);
  // faults * (overhead + page/bandwidth): both terms must be charged.
  const double overhead_only = 100 * p.um_fault_overhead_us * 1e-6;
  EXPECT_GT(s.um, overhead_only);
  EXPECT_LT(s.um, 2 * overhead_only + 1e-3);
}

TEST(CostModel, UnifiedMemoryWastesMoreThanZeroCopy) {
  // The same fine-grained access pattern (one cache line of useful data per
  // access) must cost far more through UM than through zero-copy: this is
  // the paper's 69-210x observation in miniature.
  SimParams p;
  Traffic zc;
  zc.zero_copy_lines = 10000;
  Traffic um;
  um.um_faults = 10000;  // each touch faults a fresh 4-KiB page
  EXPECT_GT(simulate_time(um, p).um / simulate_time(zc, p).zero_copy, 20.0);
}

TEST(CostModel, TrafficAdditionAccumulates) {
  Traffic a;
  a.device_bytes = 5;
  a.dma_calls = 1;
  Traffic b;
  b.device_bytes = 7;
  b.compute_ops = 3;
  const Traffic c = a + b;
  EXPECT_EQ(c.device_bytes, 12u);
  EXPECT_EQ(c.dma_calls, 1u);
  EXPECT_EQ(c.compute_ops, 3u);
}

TEST(CostModel, CpuAccessBytesCombinesInterconnectClasses) {
  SimParams p;
  Traffic t;
  t.zero_copy_lines = 2;   // 2 * 128 B
  t.dma_bytes = 100;
  t.um_faults = 1;         // 4096 B
  EXPECT_EQ(t.cpu_access_bytes(p), 2 * 128 + 100 + 4096u);
}

TEST(TrafficCounters, SnapshotAndReset) {
  TrafficCounters c;
  Traffic tally;  // one kernel block's tally, merged once
  tally.device_bytes = 10;
  tally.zero_copy_lines = 2;
  tally.zero_copy_bytes = 256;
  tally.um_faults = 1;
  tally.um_hits = 3;
  tally.compute_ops = 42;
  tally.host_ops = 7;
  tally.host_bytes = 70;
  tally.cache_hits = 1;
  tally.cache_misses = 2;
  c.add(tally);
  c.add_dma(1, 999);
  Traffic t = c.snapshot();
  EXPECT_EQ(t.device_bytes, 10u);
  EXPECT_EQ(t.zero_copy_lines, 2u);
  EXPECT_EQ(t.zero_copy_bytes, 256u);
  EXPECT_EQ(t.dma_calls, 1u);
  EXPECT_EQ(t.dma_bytes, 999u);
  EXPECT_EQ(t.um_faults, 1u);
  EXPECT_EQ(t.um_hits, 3u);
  EXPECT_EQ(t.compute_ops, 42u);
  EXPECT_EQ(t.host_ops, 7u);
  EXPECT_EQ(t.host_bytes, 70u);
  EXPECT_EQ(t.cache_hits, 1u);
  EXPECT_EQ(t.cache_misses, 2u);
  c.reset();
  t = c.snapshot();
  EXPECT_EQ(t.device_bytes, 0u);
  EXPECT_EQ(t.dma_calls, 0u);
}

// ------------------------------------------------------------- device -----

TEST(Device, TracksCapacity) {
  SimParams p;
  p.device_memory_bytes = 1024;
  Device dev(p);
  EXPECT_EQ(dev.capacity(), 1024u);
  EXPECT_EQ(dev.used(), 0u);
  {
    DeviceBuffer b = dev.alloc(512);
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(dev.used(), 512u);
    EXPECT_EQ(dev.available(), 512u);
  }
  EXPECT_EQ(dev.used(), 0u);  // RAII release
}

TEST(Device, ThrowsOnOom) {
  SimParams p;
  p.device_memory_bytes = 100;
  Device dev(p);
  DeviceBuffer keep = dev.alloc(60);
  EXPECT_THROW(dev.alloc(50), DeviceOomError);
  try {
    dev.alloc(50);
  } catch (const DeviceOomError& e) {
    EXPECT_EQ(e.requested, 50u);
    EXPECT_EQ(e.available, 40u);
  }
}

TEST(Device, MoveTransfersOwnership) {
  SimParams p;
  p.device_memory_bytes = 1000;
  Device dev(p);
  DeviceBuffer a = dev.alloc(100);
  DeviceBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(dev.used(), 100u);
}

TEST(Device, DmaCopiesBytesAndCharges) {
  Device dev;
  TrafficCounters c;
  std::vector<int> payload(256);
  std::iota(payload.begin(), payload.end(), 0);
  DeviceBuffer buf = dev.alloc(payload.size() * sizeof(int));
  dev.dma_to_device(buf, payload.data(), payload.size() * sizeof(int), c);
  EXPECT_EQ(std::memcmp(buf.data(), payload.data(),
                        payload.size() * sizeof(int)),
            0);
  const Traffic t = c.snapshot();
  EXPECT_EQ(t.dma_calls, 1u);
  EXPECT_EQ(t.dma_bytes, payload.size() * sizeof(int));
}

TEST(Device, DmaLargerThanBufferThrows) {
  Device dev;
  TrafficCounters c;
  DeviceBuffer buf = dev.alloc(16);
  std::vector<char> src(32);
  EXPECT_THROW(dev.dma_to_device(buf, src.data(), 32, c),
               Error);
}

// --------------------------------------------------------- page cache -----

TEST(PageCache, FirstTouchFaultsSecondHits) {
  PageCache cache(1 << 20, 4096);
  Traffic t;
  int x = 0;
  cache.access(&x, sizeof(x), t);
  cache.access(&x, sizeof(x), t);
  EXPECT_EQ(t.um_faults, 1u);
  EXPECT_EQ(t.um_hits, 1u);
}

TEST(PageCache, SpanningAccessTouchesAllPages) {
  PageCache cache(1 << 20, 4096);
  Traffic t;
  std::vector<char> blob(4096 * 3 + 10);
  cache.access(blob.data(), blob.size(), t);
  EXPECT_GE(t.um_faults, 3u);
  EXPECT_LE(t.um_faults, 5u);  // up to 2 extra for misalignment
}

TEST(PageCache, LruEvictsOldest) {
  PageCache cache(2 * 4096, 4096);  // room for two pages
  Traffic t;
  auto addr = [](std::uint64_t page) {
    return reinterpret_cast<const void*>(page * 4096);
  };
  cache.access(addr(1), 1, t);  // fault
  cache.access(addr(2), 1, t);  // fault
  cache.access(addr(1), 1, t);  // hit, page 1 becomes MRU
  cache.access(addr(3), 1, t);  // fault, evicts page 2
  cache.access(addr(2), 1, t);  // fault again
  cache.access(addr(1), 1, t);  // page 1 survived? (evicted by page 2) ...
  // faults: 1,2,3,2 again, and 1 (evicted when 2 was refetched? page 1 was
  // MRU before 3 arrived, so 3 evicted 2; refetching 2 evicted 3 or 1).
  EXPECT_EQ(t.um_faults + t.um_hits, 6u);
  EXPECT_GE(t.um_faults, 4u);
  EXPECT_EQ(cache.resident_pages(), 2u);
}

TEST(PageCache, ClearEmptiesResidentSet) {
  PageCache cache(1 << 20, 4096);
  Traffic t;
  std::vector<char> blob(4096 * 2);
  cache.access(blob.data(), blob.size(), t);
  EXPECT_GT(cache.resident_pages(), 0u);
  cache.clear();
  EXPECT_EQ(cache.resident_pages(), 0u);
}

TEST(PageCache, CapacityRoundedToWholePagesMinOne) {
  PageCache tiny(100, 4096);  // less than one page
  EXPECT_EQ(tiny.capacity_pages(), 1u);
}

// ------------------------------------------------------ SIMT executor -----

TEST(SimtExecutor, WorkStealingCoversAllItems) {
  SimtExecutor exec(4, Schedule::kWorkStealing);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> seen(kN);
  exec.for_each_item(kN, 16, [&](std::size_t i, std::size_t) { seen[i]++; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(seen[i].load(), 1);
}

TEST(SimtExecutor, StaticScheduleCoversAllItems) {
  SimtExecutor exec(3, Schedule::kStatic);
  constexpr std::size_t kN = 1001;
  std::vector<std::atomic<int>> seen(kN);
  exec.for_each_item(kN, 1, [&](std::size_t i, std::size_t) { seen[i]++; });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(seen[i].load(), 1);
}

TEST(SimtExecutor, BlockIdsInRange) {
  SimtExecutor exec(4);
  std::atomic<bool> bad{false};
  exec.for_each_item(1000, 8, [&](std::size_t, std::size_t block) {
    if (block >= exec.num_blocks()) bad = true;
  });
  EXPECT_FALSE(bad.load());
}

TEST(SimtExecutor, EmptyWorkIsNoop) {
  SimtExecutor exec(2);
  std::atomic<int> calls{0};
  exec.for_each_item(0, 1, [&](std::size_t, std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

}  // namespace
}  // namespace gcsm::gpusim
