// csm_cli — general-purpose command-line driver for the GCSM library.
//
// Runs continuous subgraph matching on a generated or loaded graph with any
// engine, printing per-batch reports. Examples:
//
//   csm_cli --dataset=FR --query=Q3 --engine=gcsm --batches=4
//   csm_cli --dataset=LJ --query=triangle --engine=zp --batch=1024
//   csm_cli --graph=my_graph.txt --query=clique4 --engine=cpu --list=10
//   csm_cli --dataset=AZ --query=Q1 --engine=rf        # RapidFlow-like
//   csm_cli --dataset=PA --save-graph=pa.bin           # just materialize
//   csm_cli --dataset=AZ --query=Q2 --faults=0.05      # fault-injected run
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/rapidflow_like.hpp"
#include "core/workloads.hpp"
#include "graph/graph_io.hpp"
#include "graph/update_stream.hpp"
#include "query/automorphism.hpp"
#include "query/patterns.hpp"
#include "server/admission.hpp"
#include "server/multi_query_engine.hpp"
#include "server/traffic_gen.hpp"
#include "shard/sharded_engine.hpp"
#include "util/cli.hpp"
#include "util/durable_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

using namespace gcsm;

namespace {

void write_text_file(const std::string& path, const std::string& content) {
  // Atomic (temp + rename): a reader polling the report never sees a torn
  // file, even if the process dies mid-write.
  io::atomic_write_file(path, content + "\n", /*sync=*/false);
}

// --metrics-json / --trace-json sinks (docs/OBSERVABILITY.md), shared by
// the pipeline and RapidFlow-like exits.
void write_observability(const CliArgs& args,
                         const trace::TraceCollector& collector) {
  if (args.has("metrics-json")) {
    const std::string path = args.get("metrics-json", "metrics.json");
    write_text_file(path, metrics::Registry::global().snapshot().to_json());
    std::printf("metrics written to %s\n", path.c_str());
  }
  if (args.has("trace-json")) {
    const std::string path = args.get("trace-json", "trace.json");
    write_text_file(path, collector.to_chrome_json());
    std::printf("trace written to %s\n", path.c_str());
  }
}

// --duration-s=F: wall-clock cap on the batch loop (0 = unlimited). A
// capped run stops cleanly between batches: the batch in flight finishes
// and commits (WAL flushed), then the loop prints "duration cap reached"
// and exits 0 with whatever reports it produced. scripts/soak.sh uses this
// to bound every pass instead of killing the process.
double parse_duration_s(const CliArgs& args) {
  const double duration_s = args.get_double("duration-s", 0.0);
  if (duration_s < 0.0) {
    throw Error(ErrorCode::kConfig,
                "duration-s: " + args.get("duration-s", ""));
  }
  return duration_s;
}

QueryGraph parse_query(const std::string& name, int labels) {
  QueryGraph q;
  if (name.size() == 2 && (name[0] == 'Q' || name[0] == 'q')) {
    q = make_pattern(name[1] - '0');
  } else if (name == "triangle") {
    q = make_triangle();
  } else if (name == "diamond") {
    q = make_fig1_diamond();
  } else if (name.rfind("clique", 0) == 0) {
    q = make_clique(static_cast<std::uint32_t>(std::stoi(name.substr(6))));
  } else if (name.rfind("cycle", 0) == 0) {
    q = make_cycle(static_cast<std::uint32_t>(std::stoi(name.substr(5))));
  } else if (name.rfind("path", 0) == 0) {
    q = make_path(static_cast<std::uint32_t>(std::stoi(name.substr(4))));
  } else if (name.rfind("star", 0) == 0) {
    q = make_star(static_cast<std::uint32_t>(std::stoi(name.substr(4))));
  } else {
    throw Error(ErrorCode::kConfig, "unknown query: " + name);
  }
  return labels > 1 ? with_round_robin_labels(q, labels) : q;
}

// Multi-query serving mode: two or more --query flags share one engine
// (docs/MULTI_QUERY.md). A single --query keeps the classic pipeline path
// below, byte-for-byte.
int run_multi_query(const CliArgs& args, const UpdateStream& stream,
                    const std::vector<std::string>& query_names, int labels,
                    std::uint64_t seed, std::size_t max_batches);

EngineKind parse_engine(const std::string& name) {
  if (name == "gcsm") return EngineKind::kGcsm;
  if (name == "zp") return EngineKind::kZeroCopy;
  if (name == "um") return EngineKind::kUnifiedMemory;
  if (name == "naive") return EngineKind::kNaiveDegree;
  if (name == "vsgm") return EngineKind::kVsgm;
  if (name == "cpu") return EngineKind::kCpu;
  throw Error(ErrorCode::kConfig, "unknown engine: " + name);
}

int usage() {
  std::printf(
      "usage: csm_cli [--dataset=AZ|PA|CA|LJ|FR|SF3K|SF10K | --graph=FILE]\n"
      "               [--query=Q1..Q6|triangle|diamond|cliqueN|cycleN|pathN|"
      "starN]\n"
      "               [--engine=gcsm|zp|um|naive|vsgm|cpu|rf]\n"
      "               [--batch=N] [--batches=N] [--scale=F] [--labels=N]\n"
      "               [--budget=MB] [--walks=N] [--seed=N] [--list=N]\n"
      "               [--save-graph=FILE]\n"
      "               [--faults=P] [--fault-seed=N]   (arm fault injection\n"
      "                with probability P at every site; see "
      "docs/ROBUSTNESS.md)\n"
      "               [--metrics-json=FILE]  (dump the metrics registry)\n"
      "               [--trace-json=FILE]    (chrome://tracing span export;\n"
      "                see docs/OBSERVABILITY.md)\n"
      "               [--wal-dir=DIR]        (crash durability: write-ahead\n"
      "                log + snapshots in DIR; see docs/ROBUSTNESS.md)\n"
      "               [--snapshot-every=N]   (snapshot + compact the WAL\n"
      "                every N batches; default 8, 0 = never)\n"
      "               [--recover]            (replay committed state from\n"
      "                --wal-dir before processing; resumes the stream\n"
      "                after the last committed batch)\n"
      "               [--poison-query=ID]    (multi-query only: arm the\n"
      "                match.query fault site at p=1.0 against query ID --\n"
      "                a poison tenant; see docs/ROBUSTNESS.md)\n"
      "               [--breaker-trip-after=K] [--breaker-cooldown=N]\n"
      "               [--debt-window=N] [--match-deadline-ms=T]\n"
      "                (multi-query circuit breaker tuning;\n"
      "                docs/ROBUSTNESS.md \"Tenant isolation\")\n"
      "               [--duration-s=F]       (wall-clock cap: stop cleanly\n"
      "                between batches after F seconds, committed state\n"
      "                flushed; used by scripts/soak.sh)\n"
      "               [--shards=N] [--partition=range|hash]\n"
      "                (multi-device sharded matching: partition the data\n"
      "                graph across N simulated devices, route delta joins\n"
      "                to their anchor's owner shard, stitch cross-shard\n"
      "                partials at branch vertices; counts stay bit-identical\n"
      "                to the single-device engines; see DESIGN.md\n"
      "                \"Multi-device sharding\")\n"
      "               [--max-queue=N] [--admit-rate=F]\n"
      "               [--shed-policy=oldest|lowest-impact]\n"
      "               [--shed-deadline-ms=T]\n"
      "               [--arrival=uniform|poisson|bursty] "
      "[--arrival-rate=F]\n"
      "                (multi-query only: bounded admission queue, load\n"
      "                shedding, and timed arrivals in front of the engine;\n"
      "                docs/ROBUSTNESS.md \"Overload & admission "
      "control\")\n"
      "exit codes: 0 ok, 1 permanent error, 2 config/parse error,\n"
      "            3 unrecoverable device error\n"
      "Repeat --query to serve several patterns from one shared engine\n"
      "(one graph, one estimation, one cache build per batch; see\n"
      "docs/MULTI_QUERY.md). A single --query keeps the classic pipeline.\n");
  return 2;
}

int run_multi_query(const CliArgs& args, const UpdateStream& stream,
                    const std::vector<std::string>& query_names, int labels,
                    std::uint64_t seed, std::size_t max_batches) {
  const std::string engine = args.get("engine", "gcsm");
  if (engine == "rf") {
    throw Error(ErrorCode::kConfig,
                "--engine=rf serves one query; repeated --query needs a "
                "pipeline engine (gcsm|zp|um|naive|vsgm|cpu)");
  }

  trace::TraceCollector collector;
  if (args.has("trace-json")) trace::set_collector(&collector);

  server::MultiQueryOptions mopt;
  mopt.kind = parse_engine(engine);
  mopt.seed = seed + 2;
  if (args.has("budget")) {
    mopt.cache_budget_bytes =
        static_cast<std::uint64_t>(args.get_int("budget", 256)) << 20;
  }
  mopt.estimator.num_walks =
      static_cast<std::uint64_t>(args.get_int("walks", 0));
  if (args.has("wal-dir")) {
    mopt.durability.wal_dir = args.get("wal-dir", "wal");
    mopt.durability.snapshot_interval =
        static_cast<std::uint64_t>(args.get_int("snapshot-every", 8));
    mopt.durability.recover_on_start = args.has("recover");
  }
  mopt.breaker.trip_after_failures =
      static_cast<std::uint64_t>(args.get_int("breaker-trip-after", 2));
  mopt.breaker.cooldown_batches =
      static_cast<std::uint64_t>(args.get_int("breaker-cooldown", 4));
  mopt.breaker.max_debt_batches =
      static_cast<std::uint64_t>(args.get_int("debt-window", 64));
  mopt.breaker.match_deadline_ms =
      static_cast<std::uint64_t>(args.get_int("match-deadline-ms", 0));
  FaultInjector faults(
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0x5eed)));
  const double fault_p = args.get_double("faults", 0.0);
  if (fault_p > 0.0) {
    faults.arm_all(fault_p);
    mopt.fault_injector = &faults;
  }
  const int poison_query = args.get_int("poison-query", 0);
  if (poison_query > 0) {
    FaultSpec poison;
    poison.probability = 1.0;
    poison.match_query_id = static_cast<std::uint64_t>(poison_query);
    faults.arm(fault_site::kMatchQuery, poison);
    mopt.fault_injector = &faults;
  }
  server::MultiQueryEngine srv(stream.initial, mopt);

  const auto list_limit = static_cast<std::size_t>(args.get_int("list", 0));
  std::size_t listed = 0;
  const auto make_sink = [&listed, list_limit](server::QueryId id) {
    if (list_limit == 0) return MatchSink{};
    return MatchSink{[&listed, list_limit, id](const MatchPlan& plan,
                                               std::span<const VertexId> b,
                                               int sign) {
      if (listed >= list_limit) return;
      ++listed;
      std::printf("  [q%u] %c match:", id, sign > 0 ? '+' : '-');
      for (std::size_t pos = 0; pos < b.size(); ++pos) {
        std::printf(" u%u->%d", plan.vertex_order[pos], b[pos]);
      }
      std::printf("\n");
    }};
  };

  if (srv.registry().empty()) {
    for (const std::string& name : query_names) {
      QueryGraph q = parse_query(name, labels);
      std::printf("query %s: %u vertices %u edges |Aut|=%llu\n",
                  q.name().c_str(), q.num_vertices(), q.num_edges(),
                  static_cast<unsigned long long>(count_automorphisms(q)));
      const server::QueryId id = srv.register_query(std::move(q));
      srv.attach_sink(id, make_sink(id));
    }
  } else {
    // --recover restored the registry; re-attach sinks, don't re-register.
    for (const server::RegisteredQuery& e : srv.registry().entries()) {
      std::printf("query q%u %s: restored from registry\n", e.id,
                  e.query.name().c_str());
      srv.attach_sink(e.id, make_sink(e.id));
    }
  }

  // With --recover, resume submission after the committed prefix, exactly
  // as the single-query path does.
  std::size_t start_batch = 0;
  if (mopt.durability.enabled() && mopt.durability.recover_on_start) {
    const RecoveredState& rec = srv.recovery_info();
    const durable::DurableCounters& cum = srv.cumulative();
    start_batch = static_cast<std::size_t>(cum.batches_committed);
    std::printf(
        "recovered: %llu batch(es) committed (%s snapshot, %zu replayed, "
        "%zu uncommitted dropped)%s; %zu queries; resuming at batch %zu\n",
        static_cast<unsigned long long>(cum.batches_committed),
        rec.snapshot_loaded ? "with" : "no", rec.replay.size(),
        rec.dropped_uncommitted,
        rec.wal_tail_truncated ? " [WAL tail truncated]" : "",
        srv.registry().size(), start_batch);
  }

  const auto print_batch = [](std::size_t k,
                              const server::ServerBatchReport& r) {
    std::printf(
        "batch %zu: %+lld embeddings across %zu queries | shared sim "
        "(FE %.3f, DC %.3f, reorg %.3f ms) | wall %.1f ms | cache %llu "
        "vtx%s\n",
        k, static_cast<long long>(r.shared.stats.signed_embeddings),
        r.queries.size(), r.shared.sim_estimate_s * 1e3,
        r.shared.sim_pack_s * 1e3, r.shared.sim_reorg_s * 1e3,
        r.shared.wall_total_ms(),
        static_cast<unsigned long long>(r.shared.cached_vertices),
        r.cache_dropped ? " [cache dropped]" : "");
    for (const server::QueryReport& q : r.queries) {
      std::printf(
          "  q%u %s: %+lld (+%llu/-%llu) | match sim %.3f ms | hit "
          "%.1f%%%s%s\n",
          q.id, q.name.c_str(),
          static_cast<long long>(q.report.stats.signed_embeddings),
          static_cast<unsigned long long>(q.report.stats.positive),
          static_cast<unsigned long long>(q.report.stats.negative),
          q.report.sim_match_s * 1e3, 100.0 * q.report.cache_hit_rate(),
          q.report.retries > 0 ? " [retried]" : "",
          q.report.cpu_fallback ? " [CPU fallback]" : "");
      if (q.tripped || q.skipped || q.probed || q.rejoined) {
        std::printf("    breaker:%s%s%s%s%s\n", q.tripped ? " tripped" : "",
                    q.skipped ? " quarantined" : "", q.probed ? " probed" : "",
                    q.rejoined ? " rejoined" : "",
                    q.rebaselined ? " (re-baselined)" : "");
      }
    }
    if (r.shared.retries > 0 || r.shared.degradation_level > 0 ||
        !r.shared.quarantine.empty()) {
      std::printf(
          "  recovery: %u shared retries, degradation L%u (budget %llu B), "
          "%llu faults observed, %llu records quarantined\n",
          r.shared.retries, r.shared.degradation_level,
          static_cast<unsigned long long>(r.shared.effective_cache_budget),
          static_cast<unsigned long long>(r.shared.faults_observed),
          static_cast<unsigned long long>(r.shared.quarantine.total()));
    }
  };

  const double duration_s = parse_duration_s(args);
  const Timer wall;

  // --- overload protection (docs/ROBUSTNESS.md, "Overload & admission
  // control"): any admission flag puts the bounded-queue controller in
  // front of the engine. Without --arrival-rate each batch arrives exactly
  // as the server frees (pass-through pacing); with it, arrivals follow the
  // seeded traffic generator and the queue can build, shed, and reject.
  const bool admission_on =
      args.has("max-queue") || args.has("admit-rate") ||
      args.has("shed-policy") || args.has("shed-deadline-ms") ||
      args.has("arrival") || args.has("arrival-rate");
  if (admission_on) {
    const std::int64_t max_queue = args.get_int("max-queue", 64);
    if (max_queue <= 0) {
      throw Error(ErrorCode::kConfig,
                  "max-queue: " + args.get("max-queue", ""));
    }
    const double admit_rate = args.get_double("admit-rate", 0.0);
    if (admit_rate < 0.0) {
      throw Error(ErrorCode::kConfig,
                  "admit-rate: " + args.get("admit-rate", ""));
    }
    const double shed_deadline_ms = args.get_double("shed-deadline-ms", 0.0);
    if (shed_deadline_ms < 0.0) {
      throw Error(ErrorCode::kConfig,
                  "shed-deadline-ms: " + args.get("shed-deadline-ms", ""));
    }
    const double arrival_rate = args.get_double("arrival-rate", 0.0);
    if (arrival_rate < 0.0) {
      throw Error(ErrorCode::kConfig,
                  "arrival-rate: " + args.get("arrival-rate", ""));
    }
    server::AdmissionOptions aopt;
    aopt.max_queue = static_cast<std::size_t>(max_queue);
    aopt.admit_rate = admit_rate;
    aopt.shed_policy =
        server::parse_shed_policy(args.get("shed-policy", "oldest"));
    aopt.queue_deadline_s = shed_deadline_ms / 1e3;
    const server::ArrivalKind arrival =
        server::parse_arrival(args.get("arrival", "poisson"));
    server::AdmissionController ctrl(srv, aopt);

    std::vector<server::TrafficItem> schedule;
    if (arrival_rate > 0.0) {
      server::TrafficOptions topt;
      topt.arrival = arrival;
      topt.rate = arrival_rate;
      topt.num_vertices =
          static_cast<std::uint64_t>(stream.initial.num_vertices());
      topt.seed = seed + 3;
      server::TrafficGenerator gen(topt);
      const std::vector<EdgeBatch> base(
          stream.batches.begin() + static_cast<std::ptrdiff_t>(start_batch),
          stream.batches.begin() + static_cast<std::ptrdiff_t>(max_batches));
      schedule = gen.generate(base);
    }

    const auto sink = [&](server::AdmissionCommit&& c) {
      print_batch(start_batch + static_cast<std::size_t>(c.ordinal) - 1,
                  c.report);
    };
    for (std::size_t k = start_batch; k < max_batches; ++k) {
      if (duration_s > 0.0 && wall.seconds() >= duration_s) {
        std::printf("duration cap reached after %zu/%zu batches\n", k,
                    max_batches);
        break;
      }
      const std::size_t j = k - start_batch;
      const double now = j < schedule.size()
                             ? schedule[j].arrival_s
                             : ctrl.server_free_s();
      ctrl.pump(now, sink);
      EdgeBatch batch = j < schedule.size() ? std::move(schedule[j].batch)
                                            : stream.batches[k];
      const std::uint32_t source =
          j < schedule.size() ? schedule[j].source : 0;
      if (ctrl.offer(std::move(batch), source, now) !=
          server::AdmitResult::kAdmitted) {
        std::printf("batch %zu: rejected at admission (queue full)\n", k);
      }
    }
    ctrl.finish(sink);
    const server::AdmissionStats& st = ctrl.stats();
    std::printf(
        "admission: offered %llu = admitted %llu + rejected %llu; admitted "
        "= committed %llu + shed %llu | walk scale %.3f\n",
        static_cast<unsigned long long>(st.offered),
        static_cast<unsigned long long>(st.admitted),
        static_cast<unsigned long long>(st.rejected),
        static_cast<unsigned long long>(st.committed),
        static_cast<unsigned long long>(st.shed), ctrl.walk_scale());
  } else {
    for (std::size_t k = start_batch; k < max_batches; ++k) {
      if (duration_s > 0.0 && wall.seconds() >= duration_s) {
        std::printf("duration cap reached after %zu/%zu batches\n", k,
                    max_batches);
        break;
      }
      print_batch(k, srv.process_batch(stream.batches[k]));
    }
  }
  trace::set_collector(nullptr);
  write_observability(args, collector);
  return 0;
}

// Multi-device sharded mode (--shards / --partition): the data graph is
// partitioned across N simulated devices and every registered query is
// served by the ShardedMatchEngine (DESIGN.md, "Multi-device
// sharding"). Counts stay bit-identical to the single-device engines.
int run_sharded(const CliArgs& args, const UpdateStream& stream,
                const std::vector<std::string>& query_names, int labels,
                std::uint64_t seed, std::size_t max_batches) {
  const std::int64_t shards = args.get_int("shards", 2);
  if (shards <= 0) {
    throw Error(ErrorCode::kConfig, "shards: " + args.get("shards", ""));
  }
  const std::string engine = args.get("engine", "gcsm");
  if (engine == "rf") {
    throw Error(ErrorCode::kConfig,
                "--engine=rf is single-device; --shards needs a pipeline "
                "engine (gcsm|zp|um|naive|vsgm|cpu)");
  }
  if (args.has("recover")) {
    throw Error(ErrorCode::kConfig,
                "--recover is not wired for --shards; replay the WAL "
                "through a single-device run (counts are identical)");
  }

  trace::TraceCollector collector;
  if (args.has("trace-json")) trace::set_collector(&collector);

  shard::ShardedEngineOptions sopt;
  sopt.num_shards = static_cast<std::size_t>(shards);
  sopt.partition =
      shard::parse_partition_strategy(args.get("partition", "range"));
  sopt.kind = parse_engine(engine);
  sopt.seed = seed + 2;
  if (args.has("budget")) {
    sopt.cache_budget_bytes =
        static_cast<std::uint64_t>(args.get_int("budget", 256)) << 20;
  }
  sopt.estimator.num_walks =
      static_cast<std::uint64_t>(args.get_int("walks", 0));
  if (args.has("wal-dir")) {
    sopt.durability.wal_dir = args.get("wal-dir", "wal");
    sopt.durability.snapshot_interval =
        static_cast<std::uint64_t>(args.get_int("snapshot-every", 8));
    // No --recover here: a fresh run scrubs stale durable state instead of
    // failing closed on it.
    sopt.durability.recover_on_start = false;
  }
  FaultInjector faults(
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0x5eed)));
  const double fault_p = args.get_double("faults", 0.0);
  if (fault_p > 0.0) {
    faults.arm_all(fault_p);
    sopt.fault_injector = &faults;
  }
  shard::ShardedMatchEngine srv(stream.initial, sopt);
  std::printf("sharded: %zu shard(s), %s partition, budget %llu B/shard\n",
              sopt.num_shards, shard::partition_strategy_name(sopt.partition),
              static_cast<unsigned long long>(srv.effective_cache_budget(0)));

  const auto list_limit = static_cast<std::size_t>(args.get_int("list", 0));
  std::size_t listed = 0;
  std::vector<std::string> names;
  for (const std::string& name : query_names) {
    QueryGraph q = parse_query(name, labels);
    names.push_back(q.name());
    std::printf("query %s: %u vertices %u edges |Aut|=%llu\n",
                q.name().c_str(), q.num_vertices(), q.num_edges(),
                static_cast<unsigned long long>(count_automorphisms(q)));
    MatchSink sink;
    if (list_limit > 0) {
      const auto id = static_cast<shard::QueryId>(names.size());
      sink = [&listed, list_limit, id](const MatchPlan& plan,
                                       std::span<const VertexId> b,
                                       int sign) {
        if (listed >= list_limit) return;
        ++listed;
        std::printf("  [q%u] %c match:", id, sign > 0 ? '+' : '-');
        for (std::size_t pos = 0; pos < b.size(); ++pos) {
          std::printf(" u%u->%d", plan.vertex_order[pos], b[pos]);
        }
        std::printf("\n");
      };
    }
    srv.register_query(std::move(q), std::move(sink));
  }

  const double duration_s = parse_duration_s(args);
  const Timer wall;
  for (std::size_t k = 0; k < max_batches; ++k) {
    if (duration_s > 0.0 && wall.seconds() >= duration_s) {
      std::printf("duration cap reached after %zu/%zu batches\n", k,
                  max_batches);
      break;
    }
    const shard::ShardedBatchReport r = srv.process_batch(stream.batches[k]);
    std::printf(
        "batch %zu: %+lld embeddings across %zu queries on %zu shards | "
        "sim (FE %.3f, DC %.3f, match %.3f, reorg %.3f ms) | wall %.1f ms "
        "| cut %llu | imbalance %.2f\n",
        k, static_cast<long long>(r.shared.stats.signed_embeddings),
        r.queries.size(), r.shards.size(), r.shared.sim_estimate_s * 1e3,
        r.shared.sim_pack_s * 1e3, r.shared.sim_match_s * 1e3,
        r.shared.sim_reorg_s * 1e3, r.shared.wall_total_ms(),
        static_cast<unsigned long long>(r.cut_edges), r.imbalance);
    std::printf(
        "  stitch: %llu routed joins, %llu migrated partials, %u "
        "supersteps, %.3f ms\n",
        static_cast<unsigned long long>(r.stitch.routed_items),
        static_cast<unsigned long long>(r.stitch.stitch_candidates),
        r.stitch.supersteps, r.stitch.stitch_seconds * 1e3);
    for (const shard::ShardQueryReport& q : r.queries) {
      std::printf("  q%u %s: %+lld (+%llu/-%llu)\n", q.id,
                  names[q.id - 1].c_str(),
                  static_cast<long long>(q.stats.signed_embeddings),
                  static_cast<unsigned long long>(q.stats.positive),
                  static_cast<unsigned long long>(q.stats.negative));
    }
    if (r.shared.retries > 0 || r.shared.cpu_fallback ||
        r.shared.degradation_level > 0 || !r.shared.quarantine.empty()) {
      std::printf(
          "  recovery: %u retries%s, degradation L%u (budget %llu B), "
          "%llu faults observed, %llu records quarantined\n",
          r.shared.retries, r.shared.cpu_fallback ? " (CPU fallback)" : "",
          r.shared.degradation_level,
          static_cast<unsigned long long>(r.shared.effective_cache_budget),
          static_cast<unsigned long long>(r.shared.faults_observed),
          static_cast<unsigned long long>(r.shared.quarantine.total()));
    }
  }
  trace::set_collector(nullptr);
  write_observability(args, collector);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  if (args.has("help")) return usage();

  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7));
  const auto labels = static_cast<int>(args.get_int("labels", 4));

  // --- data graph -----------------------------------------------------
  CsrGraph graph;
  std::string graph_name;
  if (args.has("graph")) {
    graph_name = args.get("graph", "");
    graph = graph_name.size() > 4 &&
                    graph_name.substr(graph_name.size() - 4) == ".bin"
                ? load_binary(graph_name)
                : load_edge_list_text(graph_name);
  } else {
    graph_name = args.get("dataset", "FR");
    graph = make_workload_graph(graph_name, args.get_double("scale", 1.0),
                                static_cast<std::uint32_t>(labels), seed);
  }
  std::printf("%s\n", graph.summary(graph_name).c_str());

  if (args.has("save-graph")) {
    const std::string path = args.get("save-graph", "graph.bin");
    if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
      save_binary(graph, path);
    } else {
      save_edge_list_text(graph, path);
    }
    std::printf("saved to %s\n", path.c_str());
    if (!args.has("query")) return 0;
  }

  // --- update stream ----------------------------------------------------
  const auto batch_size =
      static_cast<std::size_t>(args.get_int("batch", 4096));
  UpdateStreamOptions sopt =
      default_stream_options(args.get("dataset", "FR"), batch_size, seed + 1);
  const UpdateStream stream = make_update_stream(graph, sopt);
  const auto max_batches = std::min<std::size_t>(
      static_cast<std::size_t>(args.get_int("batches", 2)),
      stream.num_batches());

  // --- multi-query serving mode (repeated --query) ------------------------
  const std::vector<std::string> query_names = args.get_all("query");
  // Any admission flag routes through the serving engine too — the overload
  // controller fronts MultiQueryEngine, and a malformed flag value must
  // exit 2 on every path, never be silently ignored by the classic one.
  const bool admission_flags =
      args.has("max-queue") || args.has("admit-rate") ||
      args.has("shed-policy") || args.has("shed-deadline-ms") ||
      args.has("arrival") || args.has("arrival-rate");
  // --- multi-device sharded mode (--shards / --partition) -----------------
  if (args.has("shards") || args.has("partition")) {
    if (admission_flags) {
      throw Error(ErrorCode::kConfig,
                  "--shards cannot combine with the admission flags "
                  "(--max-queue/--admit-rate/--shed-*/--arrival*)");
    }
    return run_sharded(
        args, stream,
        query_names.empty() ? std::vector<std::string>{args.get("query", "Q1")}
                            : query_names,
        labels, seed, max_batches);
  }
  if (query_names.size() > 1 || admission_flags) {
    return run_multi_query(
        args, stream,
        query_names.empty() ? std::vector<std::string>{args.get("query", "Q1")}
                            : query_names,
        labels, seed, max_batches);
  }

  // --- query --------------------------------------------------------------
  const QueryGraph query = parse_query(args.get("query", "Q1"), labels);
  std::printf("query %s: %u vertices %u edges |Aut|=%llu\n",
              query.name().c_str(), query.num_vertices(), query.num_edges(),
              static_cast<unsigned long long>(count_automorphisms(query)));

  const auto list_limit = static_cast<std::size_t>(args.get_int("list", 0));
  std::size_t listed = 0;
  MatchSink sink = [&](const MatchPlan& plan, std::span<const VertexId> b,
                       int sign) {
    if (listed >= list_limit) return;
    ++listed;
    std::printf("  %c match:", sign > 0 ? '+' : '-');
    for (std::size_t pos = 0; pos < b.size(); ++pos) {
      std::printf(" u%u->%d", plan.vertex_order[pos], b[pos]);
    }
    std::printf("\n");
  };
  const MatchSink* sink_ptr = list_limit > 0 ? &sink : nullptr;

  // --- run ------------------------------------------------------------
  trace::TraceCollector collector;
  if (args.has("trace-json")) trace::set_collector(&collector);

  const std::string engine = args.get("engine", "gcsm");
  if (engine == "rf") {
    RapidFlowLikeEngine rf(stream.initial, query);
    for (std::size_t k = 0; k < max_batches; ++k) {
      const RapidFlowReport r = rf.process_batch(stream.batches[k], sink_ptr);
      std::printf(
          "batch %zu: %+lld embeddings, wall %.1f ms (index %.1f MB)\n", k,
          static_cast<long long>(r.stats.signed_embeddings),
          r.wall_total_ms(), static_cast<double>(r.index_bytes) / 1e6);
    }
    trace::set_collector(nullptr);
    write_observability(args, collector);
    return 0;
  }

  PipelineOptions popt;
  popt.kind = parse_engine(engine);
  popt.seed = seed + 2;
  if (args.has("budget")) {
    popt.cache_budget_bytes =
        static_cast<std::uint64_t>(args.get_int("budget", 256)) << 20;
  }
  popt.estimator.num_walks =
      static_cast<std::uint64_t>(args.get_int("walks", 0));
  if (args.has("wal-dir")) {
    popt.durability.wal_dir = args.get("wal-dir", "wal");
    popt.durability.snapshot_interval =
        static_cast<std::uint64_t>(args.get_int("snapshot-every", 8));
    popt.durability.recover_on_start = args.has("recover");
  }

  FaultInjector faults(
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0x5eed)));
  const double fault_p = args.get_double("faults", 0.0);
  if (fault_p > 0.0) {
    faults.arm_all(fault_p);
    popt.fault_injector = &faults;
  }
  Pipeline pipeline(stream.initial, query, popt);

  // With --recover, the durable state already covers a committed prefix of
  // the deterministic stream: resume submission right after it.
  std::size_t start_batch = 0;
  if (popt.durability.enabled() && popt.durability.recover_on_start) {
    const RecoveredState& rec = pipeline.recovery_info();
    const durable::DurableCounters& cum = pipeline.cumulative();
    start_batch = static_cast<std::size_t>(cum.batches_committed);
    std::printf(
        "recovered: %llu batch(es) committed (%s snapshot, %zu replayed, "
        "%zu uncommitted dropped)%s; resuming at batch %zu\n",
        static_cast<unsigned long long>(cum.batches_committed),
        rec.snapshot_loaded ? "with" : "no", rec.replay.size(),
        rec.dropped_uncommitted,
        rec.wal_tail_truncated ? " [WAL tail truncated]" : "", start_batch);
  }

  const gpusim::SimParams params = popt.sim;
  const double duration_s = parse_duration_s(args);
  const Timer wall;
  for (std::size_t k = start_batch; k < max_batches; ++k) {
    if (duration_s > 0.0 && wall.seconds() >= duration_s) {
      std::printf("duration cap reached after %zu/%zu batches\n", k,
                  max_batches);
      break;
    }
    const BatchReport r = pipeline.process_batch(stream.batches[k], sink_ptr);
    std::printf(
        "batch %zu: %+lld embeddings (+%llu/-%llu) | sim %.3f ms "
        "(match %.3f, FE %.3f, DC %.3f, reorg %.3f) | wall %.1f ms | "
        "cpu-bytes %.2f MB | cache %llu vtx, hit %.1f%%\n",
        k, static_cast<long long>(r.stats.signed_embeddings),
        static_cast<unsigned long long>(r.stats.positive),
        static_cast<unsigned long long>(r.stats.negative),
        r.sim_total_s() * 1e3, r.sim_match_s * 1e3, r.sim_estimate_s * 1e3,
        r.sim_pack_s * 1e3, r.sim_reorg_s * 1e3, r.wall_total_ms(),
        static_cast<double>(r.traffic.cpu_access_bytes(params)) / 1e6,
        static_cast<unsigned long long>(r.cached_vertices),
        100.0 * r.cache_hit_rate());
    if (r.retries > 0 || r.cpu_fallback || r.degradation_level > 0 ||
        !r.quarantine.empty()) {
      std::printf(
          "  recovery: %u retries%s, degradation L%u (budget %llu B), "
          "%llu faults observed, %llu records quarantined\n",
          r.retries, r.cpu_fallback ? " (CPU fallback)" : "",
          r.degradation_level,
          static_cast<unsigned long long>(r.effective_cache_budget),
          static_cast<unsigned long long>(r.faults_observed),
          static_cast<unsigned long long>(r.quarantine.total()));
    }
  }
  trace::set_collector(nullptr);
  write_observability(args, collector);
  return 0;
} catch (const gcsm::Error& e) {
  // One line, machine-prefixed with the taxonomy code; the exit code follows
  // the contract in docs/ROBUSTNESS.md (1 permanent, 2 config, 3 device).
  std::fprintf(stderr, "csm_cli: error [%s]: %s\n",
               error_code_name(e.code()), e.what());
  return exit_code_for(e.code());
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "csm_cli: error [config]: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "csm_cli: error: %s\n", e.what());
  return 1;
} catch (...) {
  std::fprintf(stderr, "csm_cli: error: unknown exception\n");
  return 1;
}
