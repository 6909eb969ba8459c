// Golden pins of every engine's cache step (paper Sec. IV and V-B): what
// step 2 chose and step 3 packed on each batch, and what the match then hit
// and missed.
//
// Each line records, per batch (and per shard for the sharded engine), the
// walks, the cached vertex count, the blob bytes, the exact bits of the
// simulated estimate and pack times (%a), and the match's cache hits and
// misses. Zero-copy bytes and the simulated match time are left out: they
// depend on heap addresses. The budgets are at or above the degradation
// floor and still bind, so GCSM and Naive miss.
//
// A refactor of the estimate or pack steps must leave these files
// byte-identical. On a mismatch the produced pins are written to the test
// temp directory, so a deliberate change can be reviewed and copied over.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/fault.hpp"

namespace gcsm {
namespace {

using server::MultiQueryEngine;
using server::MultiQueryOptions;
using server::ServerBatchReport;

constexpr std::uint64_t kBindingBudget = 64ull << 10;  // the floor itself
constexpr std::uint64_t kVsgmBudget = 4ull << 20;      // holds the k-hop set

UpdateStream ba_stream(VertexId n, int seed, std::size_t batch,
                       std::size_t pool) {
  Rng rng(seed);
  const CsrGraph base = generate_barabasi_albert(n, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = pool;
  opt.batch_size = batch;
  opt.seed = seed + 1;
  return make_update_stream(base, opt);
}

// 3000 vertices, 8 batches of 128 updates.
const UpdateStream& small_stream() {
  static const UpdateStream stream = ba_stream(3000, 31, 128, 1024);
  return stream;
}

// What step 2 and step 3 reported for one device.
std::string cache_fields(const BatchReport& r) {
  char sim[128];
  std::snprintf(sim, sizeof sim, "est=%a pack=%a", r.sim_estimate_s,
                r.sim_pack_s);
  std::ostringstream os;
  os << "walks=" << r.walks << " cached=" << r.cached_vertices
     << " bytes=" << r.cache_bytes << " " << sim;
  return os.str();
}

std::string hits_misses(const gpusim::Traffic& t) {
  return std::to_string(t.cache_hits) + "/" + std::to_string(t.cache_misses);
}

// Compares `got` with tests/golden/<name>.
void expect_golden(const std::string& got, const std::string& name) {
  const std::string path = std::string(GCSM_TEST_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  std::ostringstream want;
  want << in.rdbuf();
  if (got == want.str()) return;
  const std::string actual = ::testing::TempDir() + name;
  std::ofstream(actual) << got;
  ADD_FAILURE() << "cache-step pins differ from " << path
                << "; the produced pins are in " << actual << "\n"
                << got;
}

PipelineOptions pipeline_options(EngineKind kind) {
  PipelineOptions opt;
  opt.kind = kind;
  opt.workers = 2;
  opt.cache_budget_bytes =
      kind == EngineKind::kVsgm ? kVsgmBudget : kBindingBudget;
  opt.estimator.num_walks = 2048;
  opt.recovery.backoff_initial_ms = 0.0;
  opt.check_invariants = true;
  return opt;
}

MultiQueryOptions multi_options(EngineKind kind) {
  MultiQueryOptions opt;
  opt.kind = kind;
  opt.workers = 2;
  opt.cache_budget_bytes =
      kind == EngineKind::kVsgm ? kVsgmBudget : kBindingBudget;
  opt.estimator.num_walks = 1024;
  opt.recovery.backoff_initial_ms = 0.0;
  opt.recovery.watchdog_timeout_ms = 2.0;
  opt.check_invariants = true;
  return opt;
}

// Triangle, diamond and 4-edge path, weighted 1, 2 and 0.5 in arbitration.
void register_weighted(MultiQueryEngine& engine) {
  engine.register_query(make_triangle(), {}, 1.0);
  engine.register_query(make_fig1_diamond(), {}, 2.0);
  engine.register_query(make_path(4), {}, 0.5);
}

std::string multi_line(const std::string& tag, std::size_t k,
                       const ServerBatchReport& r) {
  std::string line = tag + " " + std::to_string(k) + " " +
                     cache_fields(r.shared) + " match=";
  for (std::size_t i = 0; i < r.queries.size(); ++i) {
    line += (i == 0 ? "" : ",") + hits_misses(r.queries[i].report.traffic);
  }
  return line + "\n";
}

TEST(CacheStep, PipelinePinned) {
  const UpdateStream& stream = small_stream();
  std::string pins;
  for (const EngineKind kind :
       {EngineKind::kGcsm, EngineKind::kNaiveDegree, EngineKind::kVsgm}) {
    Pipeline pipe(stream.initial, make_fig1_diamond(), pipeline_options(kind));
    for (std::size_t k = 0; k < stream.num_batches(); ++k) {
      const BatchReport r = pipe.process_batch(stream.batches[k]);
      pins += std::string(engine_kind_name(kind)) + " " + std::to_string(k) +
              " " + cache_fields(r) + " match=" + hits_misses(r.traffic) +
              "\n";
    }
  }
  expect_golden(pins, "cache_step_pipeline.txt");
}

TEST(CacheStep, MultiQueryPinned) {
  const UpdateStream& stream = small_stream();
  std::string pins;
  {
    // GCSM, serial, with the overload walk scale from mid-stream on.
    MultiQueryEngine engine(stream.initial, multi_options(EngineKind::kGcsm));
    register_weighted(engine);
    for (std::size_t k = 0; k < stream.num_batches(); ++k) {
      if (k == stream.num_batches() / 2) engine.set_walk_scale(0.5);
      pins += multi_line("GCSM-serial", k,
                         engine.process_batch(stream.batches[k]));
    }
  }
  {
    // GCSM, pipelined: each estimate is staged during the previous fan-out.
    MultiQueryEngine engine(stream.initial, multi_options(EngineKind::kGcsm));
    register_weighted(engine);
    std::size_t k = 0;
    engine.process_stream(stream.batches, [&](ServerBatchReport&& r) {
      pins += multi_line("GCSM-stream", k++, r);
    });
    EXPECT_EQ(k, stream.num_batches());
  }
  for (const EngineKind kind : {EngineKind::kNaiveDegree, EngineKind::kVsgm}) {
    MultiQueryEngine engine(stream.initial, multi_options(kind));
    register_weighted(engine);
    for (std::size_t k = 0; k < stream.num_batches(); ++k) {
      pins += multi_line(engine_kind_name(kind), k,
                         engine.process_batch(stream.batches[k]));
    }
  }
  expect_golden(pins, "cache_step_multi_query.txt");
}

// A poisoned query trips on its first batch; from then on its walks leave
// the shared estimate.
TEST(CacheStep, MultiQueryPoisonedQueryPinned) {
  const UpdateStream& stream = small_stream();
  FaultInjector inj(0xCAC4E);
  MultiQueryOptions opt = multi_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.breaker.trip_after_failures = 1;
  opt.breaker.cooldown_batches = 1000;
  MultiQueryEngine engine(stream.initial, opt);
  register_weighted(engine);
  FaultSpec poison;
  poison.probability = 1.0;
  poison.match_query_id = 2;  // the diamond
  inj.arm(fault_site::kMatchQuery, poison);

  std::string pins;
  for (std::size_t k = 0; k < stream.num_batches(); ++k) {
    pins += multi_line("GCSM-poisoned", k,
                       engine.process_batch(stream.batches[k]));
  }
  expect_golden(pins, "cache_step_multi_query_poisoned.txt");
}

TEST(CacheStep, ShardedPinned) {
  const UpdateStream stream = ba_stream(12000, 41, 256, 2048);
  std::string pins;
  for (const EngineKind kind : {EngineKind::kGcsm, EngineKind::kNaiveDegree}) {
    shard::ShardedEngineOptions opt;
    opt.num_shards = 4;
    opt.partition = shard::PartitionStrategy::kHash;
    opt.kind = kind;
    opt.cache_budget_bytes = 4 * kBindingBudget;  // the floor per shard
    opt.estimator.num_walks = 1024;
    opt.recovery.backoff_initial_ms = 0.0;
    opt.check_invariants = true;
    shard::ShardedMatchEngine engine(stream.initial, opt);
    engine.register_query(make_triangle());
    engine.register_query(make_fig1_diamond());
    engine.register_query(make_path(4));
    for (std::size_t k = 0; k < stream.num_batches(); ++k) {
      const shard::ShardedBatchReport r =
          engine.process_batch(stream.batches[k]);
      for (std::size_t s = 0; s < r.shards.size(); ++s) {
        pins += std::string(engine_kind_name(kind)) + " " +
                std::to_string(k) + " shard" + std::to_string(s) + " " +
                cache_fields(r.shards[s]) +
                " match=" + hits_misses(r.shards[s].traffic) + "\n";
      }
    }
  }
  expect_golden(pins, "cache_step_sharded.txt");
}

}  // namespace
}  // namespace gcsm
