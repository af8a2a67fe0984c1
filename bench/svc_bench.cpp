// Serving-tier benchmark (src/svc): open-loop overload curves for the
// connection broker against the per-client-connections baseline.
//
// Two experiments on a 4-node dual-rail fabric, both OPEN loop (fixed
// Poisson arrival schedules, latency measured from the scheduled arrival —
// see bench_common.hpp for the methodology):
//
//   * offered-load sweep: the same zipfian GET-heavy KV mix is offered at a
//     ladder of rates spanning ~0.5x to ~2x saturation, once with every
//     client owning private connections (ConnMode::kPerClient) and once
//     through the per-node broker (ConnMode::kBroker). Goodput is completed
//     ops/sec; shed arrivals (admission rejections, and arrivals a client
//     was too far behind to issue) are counted, never silently dropped.
//   * incast: every client on nodes 1..3 targets keys homed on node 0, at a
//     rate past the hot node's capacity, in both modes.
//
// Headline evidence (checked on every fresh run, and by --check):
//   * the broker serves the sweep with >= 8x fewer client-side connections
//     than the per-client baseline (svc_conns_opened vs kv_client_conns);
//   * broker peak goodput >= the per-client baseline's peak;
//   * at ~2x the saturating load the broker still delivers >= 0.8x its own
//     peak goodput -- overload is absorbed by explicit admission rejections
//     (rejected > 0 at the top rung), not by queueing until collapse;
//   * the broker's accepted-op p99 stays bounded at the top rung while the
//     per-client baseline's p99 blows past it (the open-loop collapse the
//     broker exists to prevent);
//   * every row costs at most kMaxEventsPerOp simulator events and at most
//     kMaxResumesPerOp fiber resumes per KV op.
//
// Usage: svc_bench [--quick] [--json[=path]] [--check=<baseline>]
//   --json   writes the machine-readable BENCH_svc.json artifact.
//   --check  reruns the sweep, verifies the headline properties, and
//            compares per-workload counter fingerprints (exact: the
//            simulation is deterministic).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/api.hpp"
#include "kv/kv.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"
#include "trace/histogram.hpp"

namespace {

using namespace multiedge;

constexpr int kNodes = 4;
constexpr int kClientsPerNode = 16;
constexpr std::size_t kValueBytes = 4096;
constexpr double kZipfTheta = 0.99;

// Gates (see file header).
constexpr double kMinConnRatio = 8.0;
constexpr double kMinOverloadGoodputFrac = 0.8;
// Ceiling on simulator events per KV op, every row (bench_common.hpp
// kv_events_per_op).
constexpr double kMaxEventsPerOp = 200;
// Ceiling on fiber resumes per KV op, every row (see kv_bench.cpp
// kMaxResumesPerOp). About 1.15x the costliest row (10.5,
// svc-perclient-incast-60k); with a switch per wakeup every row costs 20-51.
constexpr double kMaxResumesPerOp = 12;

struct Point {
  std::string name;
  bool broker = false;
  bool incast = false;
  double offered_kops = 0;  // total simulated Kops/s across all clients
  int ops = 0;              // arrivals per client
};

struct Result {
  double sim_ms = 0;
  double goodput_kops = 0;  // completed-ok ops/sec
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;  // arrival->completion, sim ns
  bench::OpenLoopCounts oc;
  std::uint64_t conns = 0;  // client-side connections opened
  double events_per_op = 0;
  double resumes_per_op = 0;
  double requeues_per_op = 0;
  std::uint64_t counters_fnv = 0;
};

Result run_point(const Point& pt) {
  ClusterConfig ccfg = config_2l_1g(kNodes);
  ccfg.memory_bytes_per_node = std::size_t{128} << 20;
  Cluster cluster(ccfg);

  kv::KvConfig cfg;
  cfg.clients_per_node = kClientsPerNode;
  cfg.max_value_bytes = kValueBytes;
  cfg.replication = 2;
  cfg.rpc_timeout = sim::ms(5);
  cfg.get_timeout = sim::ms(5);
  if (pt.incast) cfg.buckets_per_partition = 128;
  if (pt.broker) {
    cfg.conn_mode = kv::ConnMode::kBroker;
    // One pooled connection per peer (16 tenants share it: the connection
    // economy the gate measures), a credit allowance sized for the peak's
    // in-flight needs but well short of the overload's, and short bounded
    // queues so the excess is REJECTED at admission instead of parked.
    cfg.broker.conns_per_peer = 1;
    cfg.broker.credits_per_conn = 16;
    cfg.broker.tenant_queue_limit = 4;
    cfg.broker.peer_queue_limit = 8;
  } else {
    cfg.conn_mode = kv::ConnMode::kPerClient;
  }
  kv::System sys(cluster, cfg);

  const int keys = 1024;
  // Incast preset: remap key indices onto raw keys whose partition primary
  // is node 0, and keep node 0 free of clients (same recipe as kv_bench's
  // hot rows).
  std::vector<int> hot_keys;
  if (pt.incast) {
    for (int k = 0; static_cast<int>(hot_keys.size()) < keys; ++k) {
      const int part = sys.ring().partition_of(kv::fnv1a64(bench::bench_key(k)));
      if (sys.ring().replicas(part)[0] == 0) hot_keys.push_back(k);
    }
  }
  const int first_node = pt.incast ? 1 : 0;
  const int total = (kNodes - first_node) * kClientsPerNode;
  const double arrival_us = 1000.0 * total / pt.offered_kops;

  kv::HostBarrier loaded, done;
  sim::Time t0 = 0, t1 = 0;
  trace::LatencyHistogram arr_h;
  Result r;
  const std::string value(kValueBytes, 'v');
  const bench::ZipfGen zipf(keys, kZipfTheta);
  auto key_of = [&](int k) {
    return bench::bench_key(pt.incast ? hot_keys[k] : k);
  };

  for (int node = first_node; node < kNodes; ++node) {
    for (int c = 0; c < kClientsPerNode; ++c) {
      const int id = (node - first_node) * kClientsPerNode + c;
      sys.spawn_client(node, "svc" + std::to_string(id), [&, id](
                                                             kv::Client& cl) {
        for (int k = id; k < keys; k += total) {
          if (cl.put(key_of(k), value) != kv::Status::kOk) ++r.oc.errors;
        }
        loaded.arrive_and_wait(total);
        t0 = cluster.sim().now();

        bench::ArrivalConfig ac;
        ac.mean_interarrival_us = arrival_us;
        ac.count = pt.ops;
        ac.seed = kv::mix64(0x5e211ce5ull ^ id);
        const std::vector<std::uint64_t> arrivals = bench::make_arrivals(ac);
        std::mt19937_64 rng(kv::mix64(0x0ffe2edull ^ id));
        std::uniform_real_distribution<double> u01(0.0, 1.0);
        std::string got;
        const bench::OpenLoopCounts oc = bench::run_open_loop(
            cluster.sim(), cluster.sim().now(), arrivals,
            /*shed_after=*/sim::ms(2),
            [&]() -> bench::OpenLoopVerdict {
              const int k = static_cast<int>(zipf.next(u01(rng)));
              const kv::Status st = u01(rng) < 0.95
                                        ? cl.get(key_of(k), &got)
                                        : cl.put(key_of(k), value);
              if (st == kv::Status::kOk) return bench::OpenLoopVerdict::kOk;
              if (st == kv::Status::kRejected) {
                return bench::OpenLoopVerdict::kRejected;
              }
              return bench::OpenLoopVerdict::kError;
            },
            [&](sim::Time dt) {
              arr_h.record(static_cast<std::uint64_t>(sim::to_ns(dt)));
            });
        r.oc.merge(oc);
        done.arrive_and_wait(total);
        t1 = cluster.sim().now();
      });
    }
  }
  cluster.run();

  r.sim_ms = sim::to_us(t1 - t0) / 1000.0;
  if (r.sim_ms > 0) r.goodput_kops = static_cast<double>(r.oc.ok) / r.sim_ms;
  r.p50 = arr_h.p50();
  r.p95 = arr_h.p95();
  r.p99 = arr_h.p99();

  stats::Counters all = sys.aggregate_counters();
  r.conns = pt.broker ? all.get("svc_conns_opened") : all.get("kv_client_conns");
  r.events_per_op = bench::kv_events_per_op(cluster, all);
  r.resumes_per_op = bench::kv_per_op(cluster.sim().fiber_counts().resumes, all);
  r.requeues_per_op =
      bench::kv_per_op(cluster.sim().fiber_counts().requeues, all);
  bench::merge_engine_counters(cluster, kNodes, all);
  r.counters_fnv = bench::counters_fingerprint(all);
  return r;
}

std::string point_name(bool broker, bool incast, double offered) {
  std::ostringstream os;
  os << "svc-" << (broker ? "broker" : "perclient") << '-'
     << (incast ? "incast" : "sweep") << '-'
     << static_cast<int>(offered) << "k";
  return os.str();
}

std::vector<Point> points(bool quick) {
  // The ladder brackets this fabric's closed-loop capacity (~100 Kops/s at
  // 64 clients, 4 KB values): ~0.5x, ~0.75x, ~saturation, ~1.5x, ~2x. The
  // top rung doubles the saturating load; --quick keeps the rungs the gates
  // read (peak region + 2x overload).
  std::vector<double> rates = quick ? std::vector<double>{75, 110, 220}
                                    : std::vector<double>{50, 75, 110, 160,
                                                          220};
  const int ops = quick ? 32 : 64;
  std::vector<Point> pts;
  for (const bool broker : {false, true}) {
    for (const double rate : rates) {
      pts.push_back({point_name(broker, false, rate), broker, false, rate,
                     ops});
    }
  }
  // Incast: 48 clients converge on node 0's partitions at ~1.5x the hot
  // node's share of fabric capacity.
  for (const bool broker : {false, true}) {
    pts.push_back({point_name(broker, true, 60), broker, true, 60, ops});
  }
  return pts;
}

const Result* find(const std::vector<std::pair<Point, Result>>& rs,
                   const std::string& name) {
  for (const auto& [p, r] : rs) {
    if (p.name == name) return &r;
  }
  return nullptr;
}

/// Peak goodput over the (non-incast) sweep rungs of one mode.
double peak_goodput(const std::vector<std::pair<Point, Result>>& rs,
                    bool broker) {
  double peak = 0;
  for (const auto& [p, r] : rs) {
    if (!p.incast && p.broker == broker) {
      peak = std::max(peak, r.goodput_kops);
    }
  }
  return peak;
}

bool check_headlines(const std::vector<std::pair<Point, Result>>& rs) {
  bool ok = true;
  for (const auto& [p, r] : rs) {
    ok &= bench::check_per_op(p.name, "simulator events", r.events_per_op,
                              kMaxEventsPerOp);
    ok &= bench::check_per_op(p.name, "fiber resumes", r.resumes_per_op,
                              kMaxResumesPerOp);
  }

  // Connection economy: compare totals at the shared top rung.
  const Result* pc_top = find(rs, "svc-perclient-sweep-220k");
  const Result* br_top = find(rs, "svc-broker-sweep-220k");
  if (pc_top && br_top && br_top->conns > 0) {
    const double ratio = static_cast<double>(pc_top->conns) /
                         static_cast<double>(br_top->conns);
    if (ratio < kMinConnRatio) {
      std::cerr << "CHECK FAIL: broker used " << br_top->conns
                << " connections vs per-client " << pc_top->conns << " ("
                << ratio << "x, need >= " << kMinConnRatio << "x)\n";
      ok = false;
    } else {
      std::cout << "connection economy OK: " << pc_top->conns
                << " per-client conns vs " << br_top->conns << " pooled ("
                << ratio << "x fewer)\n";
    }
  }

  // Peak goodput: pooling must not cost throughput.
  const double pc_peak = peak_goodput(rs, false);
  const double br_peak = peak_goodput(rs, true);
  if (pc_peak > 0) {
    if (br_peak < pc_peak) {
      std::cerr << "CHECK FAIL: broker peak goodput " << br_peak
                << " Kops/s below per-client peak " << pc_peak << "\n";
      ok = false;
    } else {
      std::cout << "peak goodput OK: broker " << br_peak
                << " Kops/s vs per-client " << pc_peak << " Kops/s\n";
    }
  }

  // Overload: at ~2x saturation the broker keeps >= 0.8x its peak goodput,
  // with explicit rejections doing the shedding.
  if (br_top && br_peak > 0) {
    const double frac = br_top->goodput_kops / br_peak;
    if (frac < kMinOverloadGoodputFrac) {
      std::cerr << "CHECK FAIL: broker goodput at 2x saturation "
                << br_top->goodput_kops << " Kops/s is " << frac
                << "x its peak (need >= " << kMinOverloadGoodputFrac << ")\n";
      ok = false;
    } else {
      std::cout << "overload goodput OK: " << br_top->goodput_kops
                << " Kops/s at 2x saturation (" << frac << "x peak)\n";
    }
    if (br_top->oc.rejected == 0) {
      std::cerr << "CHECK FAIL: broker absorbed 2x overload with zero "
                   "admission rejections — shedding is not happening\n";
      ok = false;
    } else {
      std::cout << "admission control OK: " << br_top->oc.rejected
                << " arrivals rejected at the top rung (of "
                << br_top->oc.offered << " offered)\n";
    }
    if (br_top->oc.errors != 0) {
      std::cerr << "CHECK FAIL: broker had " << br_top->oc.errors
                << " hard errors at the top rung (rejection is the only "
                   "acceptable failure mode)\n";
      ok = false;
    }
  }

  // Tail under overload: the per-client baseline's p99 must visibly exceed
  // the broker's at the top rung — that collapse is what the broker's
  // bounded queues + rejection prevent.
  if (pc_top && br_top && br_top->p99 > 0) {
    const double ratio = static_cast<double>(pc_top->p99) /
                         static_cast<double>(br_top->p99);
    if (ratio < 1.0) {
      std::cerr << "CHECK FAIL: at 2x overload per-client p99 "
                << bench::ns_to_us(pc_top->p99) << " us is below broker p99 "
                << bench::ns_to_us(br_top->p99)
                << " us — the baseline is not collapsing first\n";
      ok = false;
    } else {
      std::cout << "overload tail OK: p99 at 2x load — per-client "
                << bench::ns_to_us(pc_top->p99) << " us vs broker "
                << bench::ns_to_us(br_top->p99) << " us (" << ratio << "x)\n";
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_svc.json");

  std::cout << "== svc_bench: open-loop overload curves, per-client "
               "connections vs broker (simulated) ==\n"
            << "latency = scheduled-arrival to completion, simulated us; "
               "shed = late + rejected arrivals\n\n";

  stats::Table t({"workload", "offered(K/s)", "goodput(K/s)", "p50(us)",
                  "p95(us)", "p99(us)", "ok", "late", "rej", "err", "conns",
                  "ev/op", "resumes/op", "requeues/op", "counters"});
  std::vector<std::pair<Point, Result>> results;
  for (const Point& p : points(args.quick)) {
    Result r = run_point(p);
    results.emplace_back(p, r);
    t.row()
        .cell(p.name)
        .cell(p.offered_kops, 0)
        .cell(r.goodput_kops, 1)
        .cell(bench::ns_to_us(r.p50), 1)
        .cell(bench::ns_to_us(r.p95), 1)
        .cell(bench::ns_to_us(r.p99), 1)
        .cell(r.oc.ok)
        .cell(r.oc.late)
        .cell(r.oc.rejected)
        .cell(r.oc.errors)
        .cell(r.conns)
        .cell(r.events_per_op, 1)
        .cell(r.resumes_per_op, 1)
        .cell(r.requeues_per_op, 1)
        .cell(bench::hex(r.counters_fnv));
  }
  t.print(std::cout);

  const bool headlines_ok = check_headlines(results);

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << "{\n  \"benchmark\": \"svc\",\n  \"quick\": "
        << (args.quick ? "true" : "false") << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& [p, r] = results[i];
      out << "    {\"name\": \"" << p.name << "\", \"mode\": \""
          << (p.broker ? "broker" : "perclient") << "\", \"experiment\": \""
          << (p.incast ? "incast" : "sweep") << '"'
          << ", \"offered_kops\": " << stats::json::number(p.offered_kops)
          << ", \"goodput_kops\": " << stats::json::number(r.goodput_kops)
          << ", \"sim_ms\": " << stats::json::number(r.sim_ms)
          << ", \"p50_us\": " << stats::json::number(bench::ns_to_us(r.p50))
          << ", \"p95_us\": " << stats::json::number(bench::ns_to_us(r.p95))
          << ", \"p99_us\": " << stats::json::number(bench::ns_to_us(r.p99))
          << ", \"offered\": " << r.oc.offered << ", \"ok\": " << r.oc.ok
          << ", \"shed_late\": " << r.oc.late
          << ", \"shed_rejected\": " << r.oc.rejected
          << ", \"errors\": " << r.oc.errors << ", \"conns\": " << r.conns
          << ", \"events_per_op\": " << stats::json::number(r.events_per_op)
          << ", \"resumes_per_op\": " << stats::json::number(r.resumes_per_op)
          << ", \"requeues_per_op\": "
          << stats::json::number(r.requeues_per_op)
          << ", \"counters_fnv1a\": \"" << bench::hex(r.counters_fnv) << "\"}"
          << (i + 1 < results.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"gates\": {\"min_conn_ratio\": "
        << stats::json::number(kMinConnRatio)
        << ", \"min_overload_goodput_frac\": "
        << stats::json::number(kMinOverloadGoodputFrac)
        << ", \"max_events_per_op\": " << stats::json::number(kMaxEventsPerOp)
        << ", \"max_resumes_per_op\": " << stats::json::number(kMaxResumesPerOp)
        << "}\n}\n";
    std::cout << "wrote " << args.json_path << '\n';
  }

  if (!args.check_path.empty()) {
    stats::json::Value doc;
    if (!bench::load_baseline(args.check_path, &doc)) return 1;
    bool ok = headlines_ok;
    ok &= bench::check_fingerprints(
        doc,
        [&](const std::string& name) -> const std::uint64_t* {
          const Result* r = find(results, name);
          return r ? &r->counters_fnv : nullptr;
        },
        "serving-tier");
    if (!ok) return 1;
    std::cout << "check OK: headline properties hold, fingerprints match\n";
  }
  return headlines_ok ? 0 : 1;
}
