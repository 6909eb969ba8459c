// The four benchmark workloads. Each builds its inputs from the seed alone
// (data graph with 4 labels, a 1024-edge update stream, a query set) and
// drives one engine kind through its public API.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "gpusim/cost_model.hpp"
#include "perfbench.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace gcsm;

constexpr std::uint32_t kDataLabels = 4;
constexpr std::size_t kBatchSize = 1024;
// The data graph, the initial snapshot G0 and the pool of updates are fixed
// per workload, as the paper's datasets are; the run's seed orders the pool
// into batches (and seeds the engines' RNG). Every seed therefore starts
// from the same G0 and ends at the same graph, which keeps set-up work and
// total update work equal across seeds while the batches differ.
constexpr std::uint64_t kDatasetSeed = 7;

// ---- inputs ---------------------------------------------------------------

struct Inputs {
  std::string dataset;
  double scale = 1.0;
  CsrGraph initial;
  std::vector<EdgeBatch> batches;
  std::size_t passes = 1;
  // With more than one pass: the graph once the first pass is applied, and
  // the number of batches that pass has. The gate counts it as a midpoint.
  CsrGraph after_first_pass;
  std::size_t first_pass_batches = 0;

  std::uint64_t adjacency_bytes() const {
    return 2 * initial.num_edges() * sizeof(VertexId);
  }
  std::string describe() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s x%.2f, %u labels: |V|=%u |E|=%llu, %zu batches x %zu "
                  "edges (%zu pass%s over the update pool)",
                  dataset.c_str(), scale, kDataLabels, initial.num_vertices(),
                  static_cast<unsigned long long>(initial.num_edges()),
                  batches.size(), kBatchSize, passes, passes > 1 ? "es" : "");
    return buf;
  }
};

// The dataset analog at `scale` and a pool of `pool_batches` x 1024 updates
// drawn from it (half insertions, half deletions; the paper's protocol),
// shuffled by `seed` and cut into batches. Each further pass reverts the
// previous one in a fresh order, so a small graph can feed a stream long
// enough to time steadily.
Inputs make_inputs(const std::string& dataset, double scale,
                   std::size_t pool_batches, std::size_t passes,
                   std::uint64_t seed) {
  Inputs in;
  in.dataset = dataset;
  in.scale = scale;
  const CsrGraph base =
      make_workload_graph(dataset, scale, kDataLabels, kDatasetSeed);
  UpdateStreamOptions opt;
  opt.pool_edge_count = pool_batches * kBatchSize;
  opt.pool_edge_fraction = 0.0;
  opt.batch_size = kBatchSize;
  opt.seed = kDatasetSeed;
  UpdateStream stream = make_update_stream(base, opt);
  in.initial = std::move(stream.initial);

  std::vector<EdgeUpdate> pool;
  for (const EdgeBatch& b : stream.batches) {
    pool.insert(pool.end(), b.updates.begin(), b.updates.end());
  }
  Rng rng(seed);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.bounded(i)]);
    }
    for (std::size_t begin = 0; begin < pool.size(); begin += kBatchSize) {
      const std::size_t end = std::min(pool.size(), begin + kBatchSize);
      EdgeBatch batch;
      batch.updates.assign(pool.begin() + static_cast<std::ptrdiff_t>(begin),
                           pool.begin() + static_cast<std::ptrdiff_t>(end));
      in.batches.push_back(std::move(batch));
    }
    for (EdgeUpdate& u : pool) u.sign = static_cast<std::int8_t>(-u.sign);
  }
  in.passes = passes;
  if (passes > 1) {
    // Every insertion of the pool is absent from G0, every deletion present.
    std::set<std::pair<VertexId, VertexId>> deleted;
    std::vector<Edge> edges = in.initial.edge_list();
    for (const EdgeUpdate& u : pool) {  // signs are back to the first pass's
      if (u.sign > 0) {
        edges.push_back({u.u, u.v});
      } else {
        deleted.insert(std::minmax(u.u, u.v));
      }
    }
    std::erase_if(edges, [&](const Edge& e) {
      return deleted.count(std::minmax(e.u, e.v)) != 0;
    });
    in.after_first_pass = CsrGraph::from_edges(in.initial.num_vertices(), edges,
                                               in.initial.labels());
    in.first_pass_batches = in.batches.size() / passes;
  }
  return in;
}

QueryGraph paper_query(int index) {
  return with_round_robin_labels(make_pattern(index),
                                 static_cast<int>(kDataLabels));
}

std::vector<QueryGraph> paper_mix() {
  std::vector<QueryGraph> qs;
  for (int i = 1; i <= 6; ++i) qs.push_back(paper_query(i));
  return qs;
}

std::string query_names(const std::vector<QueryGraph>& qs) {
  std::string s;
  for (const QueryGraph& q : qs) s += (s.empty() ? "" : ",") + q.name();
  return s;
}

// ---- readings -------------------------------------------------------------

std::uint64_t committed_edges(const EdgeBatch& batch, const BatchReport& r) {
  return batch.size() - std::min<std::uint64_t>(batch.size(),
                                                r.quarantine.total());
}

// Shared-phase fields of a batch report.
void read_shared(const BatchReport& r, Reading& out) {
  out["graph.update_ms"] = r.wall_update_ms;
  out["graph.reorg_ms"] = r.wall_reorg_ms;
  out["graph.quarantined"] = static_cast<double>(r.quarantine.total());
  out["estimate.wall_ms"] = r.wall_estimate_ms;
  out["estimate.sim_ms"] = r.sim_estimate_s * 1e3;
  out["pack.wall_ms"] = r.wall_pack_ms;
  out["pack.sim_ms"] = r.sim_pack_s * 1e3;
  out["pack.cached_vertices"] = static_cast<double>(r.cached_vertices);
  out["pack.blob_kb"] = static_cast<double>(r.cache_bytes) / 1024.0;
  out["recovery.retries"] += r.retries;
  out["recovery.cpu_fallbacks"] += r.cpu_fallback ? 1.0 : 0.0;
  out["recovery.degradation_level"] =
      std::max(out["recovery.degradation_level"],
               static_cast<double>(r.degradation_level));
}

// Match-phase traffic and stats, summed over queries (or shards).
void add_match(const MatchStats& stats, const gpusim::Traffic& traffic,
               double sim_match_s, const gpusim::SimParams& sim,
               Reading& out) {
  const gpusim::SimTime st = gpusim::simulate_time(traffic, sim);
  out["match.sim_ms"] += sim_match_s * 1e3;
  out["match.sim_compute_ms"] += st.compute * 1e3;
  out["match.sim_zero_copy_ms"] += st.zero_copy * 1e3;
  out["match.seeds"] += static_cast<double>(stats.seeds);
  out["match.deltas"] += static_cast<double>(stats.positive + stats.negative);
  out["match.compute_ops"] += static_cast<double>(traffic.compute_ops);
  out["match.cache_hits"] += static_cast<double>(traffic.cache_hits);
  out["match.cache_misses"] += static_cast<double>(traffic.cache_misses);
  out["match.zero_copy_mb"] += static_cast<double>(traffic.zero_copy_bytes) / 1e6;
  out["match.device_mb"] += static_cast<double>(traffic.device_bytes) / 1e6;
}

double sim_ms_of(const BatchReport& shared) { return shared.sim_total_s() * 1e3; }

// One query's gate: its signed deltas must add up to the change in its
// count. Returns the failure, or an empty string when the identity holds.
std::string identity_failure(const std::string& name, std::uint64_t m_start,
                             std::uint64_t m_end, std::int64_t delta_sum) {
  const auto diff = static_cast<std::int64_t>(m_end - m_start);
  if (diff == delta_sum) return {};
  return name + ": the count changed by " + std::to_string(diff) +
         " but the deltas add up to " + std::to_string(delta_sum);
}

// Every query's count after `batches` batches of the stream.
struct Checkpoint {
  std::size_t batches = 0;
  std::vector<std::uint64_t> counts;
};

// The gate for a query set fixed over the stream, whose deltas sit at
// position i of every result: between consecutive checkpoints, each query's
// signed deltas must add up to the change in its count.
std::vector<std::string> check_fixed(const std::vector<BatchResult>& results,
                                     const std::vector<QueryGraph>& queries,
                                     const std::vector<Checkpoint>& points) {
  std::vector<std::string> failures;
  for (std::size_t p = 1; p < points.size(); ++p) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::int64_t sum = 0;
      for (std::size_t k = points[p - 1].batches; k < points[p].batches; ++k) {
        sum += results.at(k).deltas.at(i);
      }
      std::string f = identity_failure(
          queries[i].name() + " at batch " + std::to_string(points[p].batches),
          points[p - 1].counts.at(i), points[p].counts.at(i), sum);
      if (!f.empty()) failures.push_back(std::move(f));
    }
  }
  return failures;
}

// Checkpoints for an engine type with register_query and
// count_current_embeddings: M(G0) from set-up, the first-pass midpoint
// counted on a fresh engine over that graph, and the engine's counts now.
template <class Engine, class Options>
std::vector<Checkpoint> checkpoints(Spans& spans, const Inputs& in,
                                    const Options& opt,
                                    const std::vector<QueryGraph>& queries,
                                    const std::vector<std::uint64_t>& m0,
                                    Engine& engine,
                                    const std::vector<std::uint32_t>& ids,
                                    std::size_t batches_run) {
  std::vector<Checkpoint> points = {{0, m0}};
  spans.time("perfbench.count", [&] {
    if (in.passes > 1 && batches_run >= in.first_pass_batches) {
      Engine mid(in.after_first_pass, opt);
      Checkpoint c{in.first_pass_batches, {}};
      for (const QueryGraph& q : queries) {
        c.counts.push_back(mid.count_current_embeddings(mid.register_query(q)));
      }
      points.push_back(std::move(c));
    }
    Checkpoint end{batches_run, {}};
    for (const std::uint32_t id : ids) {
      end.counts.push_back(engine.count_current_embeddings(id));
    }
    points.push_back(std::move(end));
  });
  return points;
}

// Registers n queries, then counts M(G0) for each, timing every call.
template <class Register, class Count>
void register_and_count(Spans& spans, std::size_t n, SetupTiming& t,
                        Register&& reg, Count&& count) {
  for (std::size_t i = 0; i < n; ++i) {
    t.register_ms += spans.time("perfbench.register", [&] { reg(i); });
  }
  for (std::size_t i = 0; i < n; ++i) {
    t.count_ms += spans.time("perfbench.count", [&] { count(i); });
  }
  t.subscriptions += n;
}

// ---- q5-sf3k: one query on Pipeline ---------------------------------------

class PipelineWorkload final : public Workload {
 public:
  explicit PipelineWorkload(std::uint64_t seed)
      : in_(make_inputs("SF3K", 0.2, 100, 1, seed)), query_(paper_query(5)) {
    opt_.kind = EngineKind::kGcsm;
    // ~30% of the initial adjacency: the paper's 14 GB buffer against
    // SF3K's adjacency, so the budget binds and ranking quality matters.
    opt_.cache_budget_bytes = in_.adjacency_bytes() * 3 / 10;
    opt_.workers = threads().workers;
    opt_.seed = seed + 13;
  }

  std::string describe() const override {
    return in_.describe() + "; query " + query_.name() +
           " on Pipeline, budget " +
           std::to_string(opt_.cache_budget_bytes >> 10) + " KiB (30% of adjacency)";
  }
  ThreadConfig threads() const override { return {4, 1, 0}; }

  SetupTiming setup(Spans& spans) override {
    teardown();
    SetupTiming t;
    // The constructor takes the query: construction is the registration.
    t.register_ms = spans.time("perfbench.register", [&] {
      pipe_ = std::make_unique<Pipeline>(in_.initial, query_, opt_);
    });
    t.count_ms = spans.time("perfbench.count",
                            [&] { m0_ = pipe_->count_current_embeddings(); });
    t.subscriptions = 1;
    return t;
  }

  void run(Spans& spans,
           const std::function<void(BatchResult&&)>& on_result) override {
    for (const EdgeBatch& batch : in_.batches) {
      BatchReport rep;
      BatchResult res;
      res.latency_ms = spans.time("perfbench.batch",
                                  [&] { rep = pipe_->process_batch(batch); });
      res.sim_ms = sim_ms_of(rep);
      res.edges = committed_edges(batch, rep);
      res.deltas = {rep.stats.signed_embeddings};
      read_shared(rep, res.layers);
      add_match(rep.stats, rep.traffic, rep.sim_match_s, opt_.sim, res.layers);
      res.layers["match.wall_ms"] = rep.wall_match_ms;
      res.layers["match.query_max_ms"] = rep.wall_match_ms;
      on_result(std::move(res));
    }
  }

  std::vector<std::string> check(
      Spans& spans, const std::vector<BatchResult>& results) override {
    std::uint64_t m_end = 0;
    spans.time("perfbench.count",
               [&] { m_end = pipe_->count_current_embeddings(); });
    return check_fixed(results, {query_},
                       {{0, {m0_}}, {results.size(), {m_end}}});
  }

  void teardown() override { pipe_.reset(); }

 private:
  Inputs in_;
  QueryGraph query_;
  PipelineOptions opt_;
  std::unique_ptr<Pipeline> pipe_;
  std::uint64_t m0_ = 0;
};

// ---- mix6-stream: Q1-Q6 on MultiQueryEngine::process_stream ----------------

// Fields of one multi-query report shared by the stream and churn workloads.
BatchResult read_server(const EdgeBatch& batch,
                        const server::ServerBatchReport& rep,
                        const gpusim::SimParams& sim) {
  BatchResult res;
  res.sim_ms = sim_ms_of(rep.shared);
  res.edges = committed_edges(batch, rep.shared);
  read_shared(rep.shared, res.layers);
  double match_sum = 0.0;
  double match_max = 0.0;
  for (const server::QueryReport& q : rep.queries) {
    res.deltas.push_back(q.report.stats.signed_embeddings);
    res.sim_ms += q.report.sim_match_s * 1e3;
    add_match(q.report.stats, q.report.traffic, q.report.sim_match_s, sim,
              res.layers);
    match_sum += q.report.wall_match_ms;
    match_max = std::max(match_max, q.report.wall_match_ms);
    res.layers["recovery.retries"] += q.report.retries;
    res.layers["recovery.cpu_fallbacks"] += q.report.cpu_fallback ? 1.0 : 0.0;
  }
  res.layers["match.wall_ms"] = match_sum;
  res.layers["match.query_max_ms"] = match_max;
  res.layers["server.fanout_imbalance"] =
      match_sum > 0.0 ? match_max * static_cast<double>(rep.queries.size()) /
                            match_sum
                      : 1.0;
  return res;
}

// Caller time not spent in the shared phases or the slowest query's match.
void note_server_overhead(BatchResult& res) {
  Reading& l = res.layers;
  l["server.overhead_ms"] =
      res.latency_ms - (l["graph.update_ms"] + l["estimate.wall_ms"] +
                        l["pack.wall_ms"] + l["graph.reorg_ms"] +
                        l["match.query_max_ms"]);
}

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(std::uint64_t seed)
      : in_(make_inputs("SF3K", 0.1, 100, 2, seed)), queries_(paper_mix()) {
    opt_.kind = EngineKind::kGcsm;
    // Holds the whole graph: cache ranking cannot matter here.
    opt_.cache_budget_bytes = 64ull << 20;
    opt_.workers = threads().workers;
    opt_.match_parallelism = threads().match_parallelism;
    opt_.seed = seed + 13;
  }

  std::string describe() const override {
    return in_.describe() + "; queries " + query_names(queries_) +
           " on MultiQueryEngine::process_stream, budget 64 MiB (whole graph)";
  }
  ThreadConfig threads() const override { return {4, 1, 0}; }

  SetupTiming setup(Spans& spans) override {
    teardown();
    SetupTiming t;
    t.construct_ms = spans.time("perfbench.construct", [&] {
      engine_ = std::make_unique<server::MultiQueryEngine>(in_.initial, opt_);
    });
    ids_.clear();
    m0_.clear();
    register_and_count(
        spans, queries_.size(), t,
        [&](std::size_t i) { ids_.push_back(engine_->register_query(queries_[i])); },
        [&](std::size_t i) {
          m0_.push_back(engine_->count_current_embeddings(ids_[i]));
        });
    return t;
  }

  void run(Spans& spans,
           const std::function<void(BatchResult&&)>& on_result) override {
    std::size_t k = 0;
    Clock::time_point last = Clock::now();
    engine_->process_stream(in_.batches, [&](server::ServerBatchReport&& rep) {
      const Clock::time_point now = Clock::now();
      BatchResult res = read_server(in_.batches.at(k++), rep, opt_.sim);
      res.latency_ms = ms_between(last, now);
      spans.record_ending_now("perfbench.batch", res.latency_ms);
      note_server_overhead(res);
      on_result(std::move(res));
      last = Clock::now();
    });
  }

  std::vector<std::string> check(
      Spans& spans, const std::vector<BatchResult>& results) override {
    return check_fixed(results, queries_,
                       checkpoints(spans, in_, opt_, queries_, m0_, *engine_,
                                   ids_, results.size()));
  }

  void teardown() override { engine_.reset(); }

 private:
  Inputs in_;
  std::vector<QueryGraph> queries_;
  server::MultiQueryOptions opt_;
  std::unique_ptr<server::MultiQueryEngine> engine_;
  std::vector<server::QueryId> ids_;
  std::vector<std::uint64_t> m0_;
};

// ---- tenant-churn: 32 small durable queries, one re-registration a batch ---

// Eight small shapes; each is registered with 1, 2 and 3 labels (the 24
// standing tenants) and once more with 2 labels in a churn slot.
std::vector<QueryGraph> churn_shapes() {
  return {make_triangle(),  make_fig1_diamond(), make_cycle(4),
          make_cycle(5),    make_path(3),        make_star(3),
          make_clique(4),   make_pattern(1)};
}

class ChurnWorkload final : public Workload {
 public:
  static constexpr int kLabelVariants = 3;
  static constexpr int kTwinLabels = 2;

  ChurnWorkload(std::uint64_t seed, const std::string& work_dir)
      : in_(make_inputs("LJ", 0.25, 100, 1, seed)) {
    for (const QueryGraph& shape : churn_shapes()) {
      for (int labels = 1; labels <= kLabelVariants; ++labels) {
        standing_.push_back(with_round_robin_labels(shape, labels));
      }
      slots_.push_back(with_round_robin_labels(shape, kTwinLabels));
    }
    opt_.kind = EngineKind::kGcsm;
    opt_.cache_budget_bytes = 64ull << 20;
    opt_.workers = threads().workers;
    opt_.match_parallelism = threads().match_parallelism;
    opt_.seed = seed + 13;
    opt_.durability.wal_dir = work_dir + "/tenant-churn-wal";
    opt_.durability.fsync = true;
    opt_.durability.recover_on_start = false;
  }
  ~ChurnWorkload() override { teardown(); }

  std::string describe() const override {
    return in_.describe() + "; " + std::to_string(standing_.size()) +
           " standing + " + std::to_string(slots_.size()) +
           " churn-slot queries (triangle, diamond, 4-cycle, 5-cycle, "
           "3-path, 3-star, 4-clique, Q1; 1-3 labels) on MultiQueryEngine, "
           "durable WAL with fsync, one unregister+register per batch";
  }
  ThreadConfig threads() const override { return {1, 4, 0}; }

  SetupTiming setup(Spans& spans) override {
    teardown();
    std::filesystem::create_directories(opt_.durability.wal_dir);
    SetupTiming t;
    t.construct_ms = spans.time("perfbench.construct", [&] {
      engine_ = std::make_unique<server::MultiQueryEngine>(in_.initial, opt_);
    });
    live_.clear();
    m0_.clear();
    const std::size_t n = standing_.size() + slots_.size();
    register_and_count(
        spans, n, t,
        [&](std::size_t i) {
          const bool slot = i >= standing_.size();
          const std::size_t s = i - (slot ? standing_.size() : 0);
          const QueryGraph& q = slot ? slots_[s] : standing_[i];
          live_.push_back({engine_->register_query(q),
                           slot ? static_cast<int>(twin_of(s)) : -1, 0, 0});
        },
        [&](std::size_t i) {
          m0_.push_back(engine_->count_current_embeddings(live_[i].id));
        });
    return t;
  }

  void run(Spans& spans,
           const std::function<void(BatchResult&&)>& on_result) override {
    retired_.clear();
    twin_deltas_.clear();
    registry_calls_ = 0;
    for (std::size_t k = 0; k < in_.batches.size(); ++k) {
      const EdgeBatch& batch = in_.batches[k];
      server::ServerBatchReport rep;
      const double ms = spans.time(
          "perfbench.batch", [&] { rep = engine_->process_batch(batch); });
      BatchResult res = read_server(batch, rep, opt_.sim);
      res.latency_ms = ms;
      note_server_overhead(res);
      // Reports list queries by ascending id; live_ keeps slot order.
      std::map<server::QueryId, std::int64_t> delta_of;
      for (const server::QueryReport& q : rep.queries) {
        delta_of[q.id] = q.report.stats.signed_embeddings;
      }
      for (Tenant& t : live_) t.sum += delta_of.at(t.id);
      std::vector<std::int64_t> twins;
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        twins.push_back(delta_of.at(live_[twin_of(s)].id));
      }
      twin_deltas_.push_back(std::move(twins));

      // Retire the oldest tenant of one churn slot and register its
      // replacement (same pattern), both durably.
      const std::size_t slot = k % slots_.size();
      Tenant& tenant = live_[standing_.size() + slot];
      bool known = false;
      res.layers["server.unregister_ms"] = spans.time("perfbench.unregister", [&] {
        known = engine_->unregister_query(tenant.id);
      });
      if (!known) {
        throw Error(ErrorCode::kConfig,
                    "unregister_query: unknown id " + std::to_string(tenant.id));
      }
      tenant.end = k + 1;
      retired_.push_back(tenant);
      tenant = Tenant{0, tenant.twin, k + 1, 0};
      res.layers["server.register_ms"] = spans.time("perfbench.register", [&] {
        tenant.id = engine_->register_query(slots_[slot]);
      });
      registry_calls_ += 2;
      on_result(std::move(res));
    }
  }

  std::size_t registry_calls() const override { return registry_calls_; }

  std::vector<std::string> check(
      Spans& spans, const std::vector<BatchResult>& results) override {
    (void)results;  // the per-tenant sums were kept while running
    std::vector<std::string> failures;
    // Standing tenants: counted at both ends.
    for (std::size_t i = 0; i < standing_.size(); ++i) {
      std::uint64_t m_end = 0;
      spans.time("perfbench.count", [&] {
        m_end = engine_->count_current_embeddings(live_[i].id);
      });
      std::string f =
          identity_failure(standing_[i].name(), m0_[i], m_end, live_[i].sum);
      if (!f.empty()) failures.push_back(std::move(f));
    }
    // Churned tenants: a slot's pattern equals its standing twin's, so
    // M(end) - M(start) over a tenant's lifetime is the twin's delta sum
    // over the same batches, which the check above already tied to counts.
    std::vector<Tenant> churned = retired_;
    churned.insert(churned.end(), live_.begin() + standing_.size(),
                   live_.end());
    for (Tenant& t : churned) {
      if (t.end == 0) t.end = twin_deltas_.size();
      std::int64_t twin_sum = 0;
      const std::size_t slot = slot_of_twin(static_cast<std::size_t>(t.twin));
      for (std::size_t k = t.start; k < t.end; ++k) {
        twin_sum += twin_deltas_[k][slot];
      }
      if (twin_sum != t.sum) {
        failures.push_back("tenant " + std::to_string(t.id) +
                           ": lifetime delta differs from its twin's");
      }
    }
    return failures;
  }

  void teardown() override {
    engine_.reset();
    std::error_code ec;
    std::filesystem::remove_all(opt_.durability.wal_dir, ec);
  }

 private:
  struct Tenant {
    server::QueryId id = 0;
    int twin = -1;          // index of the standing twin (churn slots)
    std::size_t start = 0;  // first batch matched
    std::int64_t sum = 0;   // signed deltas while registered
    std::size_t end = 0;    // one past the last batch matched (0 = live)
  };

  static std::size_t twin_of(std::size_t slot) {
    return slot * kLabelVariants + (kTwinLabels - 1);
  }
  static std::size_t slot_of_twin(std::size_t twin) {
    return twin / kLabelVariants;
  }

  Inputs in_;
  std::vector<QueryGraph> standing_;
  std::vector<QueryGraph> slots_;
  server::MultiQueryOptions opt_;
  std::unique_ptr<server::MultiQueryEngine> engine_;
  std::vector<Tenant> live_;  // standing tenants, then one per churn slot
  std::vector<Tenant> retired_;
  std::vector<std::uint64_t> m0_;
  std::vector<std::vector<std::int64_t>> twin_deltas_;  // [batch][slot]
  std::size_t registry_calls_ = 0;
};

// ---- shard4-mix: Q1-Q6 on ShardedMatchEngine, 4 hash shards ----------------

class ShardWorkload final : public Workload {
 public:
  explicit ShardWorkload(std::uint64_t seed)
      : in_(make_inputs("SF3K", 0.1, 100, 2, seed)), queries_(paper_mix()) {
    opt_.num_shards = 4;
    opt_.partition = shard::PartitionStrategy::kHash;
    opt_.kind = EngineKind::kGcsm;
    opt_.cache_budget_bytes = 64ull << 20;
    opt_.workers = threads().shard_pool;
    opt_.seed = seed + 13;
  }

  std::string describe() const override {
    return in_.describe() + "; queries " + query_names(queries_) +
           " on ShardedMatchEngine, 4 hash shards, budget 64 MiB total";
  }
  ThreadConfig threads() const override { return {1, 1, 4}; }

  SetupTiming setup(Spans& spans) override {
    teardown();
    SetupTiming t;
    t.construct_ms = spans.time("perfbench.construct", [&] {
      engine_ = std::make_unique<shard::ShardedMatchEngine>(in_.initial, opt_);
    });
    ids_.clear();
    m0_.clear();
    register_and_count(
        spans, queries_.size(), t,
        [&](std::size_t i) { ids_.push_back(engine_->register_query(queries_[i])); },
        [&](std::size_t i) {
          m0_.push_back(engine_->count_current_embeddings(ids_[i]));
        });
    return t;
  }

  void run(Spans& spans,
           const std::function<void(BatchResult&&)>& on_result) override {
    for (const EdgeBatch& batch : in_.batches) {
      shard::ShardedBatchReport rep;
      BatchResult res;
      res.latency_ms = spans.time(
          "perfbench.batch", [&] { rep = engine_->process_batch(batch); });
      res.sim_ms = sim_ms_of(rep.shared);
      res.edges = committed_edges(batch, rep.shared);
      read_shared(rep.shared, res.layers);
      for (const shard::ShardQueryReport& q : rep.queries) {
        res.deltas.push_back(q.stats.signed_embeddings);
      }
      add_match(rep.shared.stats, rep.shared.traffic, rep.shared.sim_match_s,
                opt_.sim, res.layers);
      Reading& l = res.layers;
      l["match.wall_ms"] = rep.shared.wall_match_ms;
      l["match.query_max_ms"] = rep.shared.wall_match_ms;
      l["shard.stitch_ms"] = rep.stitch.stitch_seconds * 1e3;
      l["shard.routed_joins"] = static_cast<double>(rep.stitch.routed_items);
      l["shard.stitch_candidates"] =
          static_cast<double>(rep.stitch.stitch_candidates);
      l["shard.supersteps"] = rep.stitch.supersteps;
      l["shard.cut_edges"] = static_cast<double>(rep.cut_edges);
      l["shard.imbalance"] = rep.imbalance;
      double max_cache = 0.0;
      for (const BatchReport& s : rep.shards) {
        max_cache = std::max(max_cache, static_cast<double>(s.cache_bytes));
      }
      l["shard.max_cache_kb"] = max_cache / 1024.0;
      on_result(std::move(res));
    }
  }

  std::vector<std::string> check(
      Spans& spans, const std::vector<BatchResult>& results) override {
    return check_fixed(results, queries_,
                       checkpoints(spans, in_, opt_, queries_, m0_, *engine_,
                                   ids_, results.size()));
  }

  void teardown() override { engine_.reset(); }

 private:
  Inputs in_;
  std::vector<QueryGraph> queries_;
  shard::ShardedEngineOptions opt_;
  std::unique_ptr<shard::ShardedMatchEngine> engine_;
  std::vector<shard::QueryId> ids_;
  std::vector<std::uint64_t> m0_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"q5-sf3k", "mix6-stream",
                                                 "tenant-churn", "shard4-mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "q5-sf3k") return std::make_unique<PipelineWorkload>(seed);
  if (name == "mix6-stream") return std::make_unique<StreamWorkload>(seed);
  if (name == "tenant-churn") {
    return std::make_unique<ChurnWorkload>(seed, work_dir);
  }
  if (name == "shard4-mix") return std::make_unique<ShardWorkload>(seed);
  throw Error(ErrorCode::kConfig, "unknown workload: " + name);
}

}  // namespace perfbench
