// Scale-out benchmark (src/member + hierarchical src/net topologies):
// evidence that the subsystem keeps working past a single switch.
//
// Three sweeps, all on 16/64/128 nodes:
//   * detector convergence: one node loses every rail; measure the first
//     down-mark (detection) and the last survivor's down-mark
//     (dissemination), for the SWIM detector and for the legacy all-pairs
//     heartbeat mesh it replaced, plus each detector's per-node probe
//     message rate;
//   * KV scaling: closed-loop uniform GET/PUT load against src/kv on a
//     two-level / fat-tree fabric;
//   * collective scaling: dissemination barrier and ring all-reduce on the
//     same fabric.
//
// Headline evidence (checked on every fresh run, and by --check):
//   * every convergence run converges with zero false positives;
//   * at 16 nodes SWIM's full dissemination takes <= 2x the mesh's (the
//     price of O(1) probing is bounded);
//   * at 128 nodes the mesh pays >= 8x SWIM's per-node probe messages per
//     simulated ms (the asymptotic point of SWIM: O(1) vs O(n) per period);
//   * KV load runs error-free at every scale, and the log-depth barrier
//     scales sub-linearly from 16 to 128 nodes.
//
// Usage: scale_bench [--quick] [--json[=path]] [--check=<baseline>]
//   --quick  drops the 128-node rows (CI smoke; --check skips absent rows).
//   --json   writes the machine-readable BENCH_scale.json artifact.
//   --check  reruns the sweep, verifies the headline properties, and
//            compares per-workload counter fingerprints (exact: the
//            simulation is deterministic).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coll/coll.hpp"
#include "core/api.hpp"
#include "kv/kv.hpp"
#include "member/member.hpp"
#include "sim/process.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

namespace {

using namespace multiedge;

// Hierarchical fabric for the member sweeps: single rail, nodes behind edge
// switches; 128 nodes get the 8-edge x 2-spine fat-tree pod.
ClusterConfig member_config(int nodes) {
  ClusterConfig cfg = config_1l_1g(nodes);
  if (nodes > 16) {
    cfg.topology.edge_groups = nodes >= 128 ? 8 : 4;
    if (nodes >= 128) cfg.topology.spines = 2;
  }
  return cfg;
}

// Hierarchical fabric for the KV / collective sweeps: both striped rails,
// each one a two-level tree (fat-tree past 16 nodes).
ClusterConfig fabric_config(int nodes) {
  ClusterConfig cfg = config_2l_1g(nodes);
  cfg.topology.edge_groups = nodes > 16 ? 8 : 4;
  if (nodes > 16) cfg.topology.spines = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Detector convergence
// ---------------------------------------------------------------------------

struct ConvResult {
  bool converged = false;
  double detect_ms = 0;   // crash -> first survivor's down-mark
  double dissem_ms = 0;   // crash -> last survivor's down-mark
  int false_positives = 0;
  double probes_per_node_ms = 0;  // probe messages / node / simulated ms
  double sim_ms = 0;
  std::uint64_t counters_fnv = 0;
};

ConvResult run_convergence(int nodes, bool mesh) {
  ClusterConfig ccfg = member_config(nodes);
  if (mesh) {
    // The legacy mesh predates the hierarchical fabrics; give it the flat
    // switch it was built for. That is also its best case — its O(n^2)
    // heartbeat traffic melts fat-tree uplinks into false positives — so
    // the comparison errs in the mesh's favor.
    ccfg.topology.edge_groups = 1;
    ccfg.topology.spines = 1;
  }
  const int victim = nodes / 2;
  // The mesh needs its all-pairs handshake warm-up before the crash; SWIM
  // establishes connections lazily and its cold-start pacing tolerates an
  // early crash.
  const sim::Time crash_at = mesh ? sim::ms(6) : sim::ms(2);
  for (int r = 0; r < ccfg.topology.rails; ++r) {
    ccfg.topology.rail_outages.push_back(
        {/*rail=*/r, /*node=*/victim, crash_at, sim::sec(100)});
  }
  Cluster cluster(std::move(ccfg));

  member::MemberConfig mcfg;
  mcfg.mesh = mesh;
  member::Service svc(cluster, mcfg);

  sim::Time first_detect = 0;
  svc.add_on_transition(
      [&](int observer, int peer, member::PeerState st, sim::Time t) {
        if (observer != victim && peer == victim &&
            st == member::PeerState::kDead && first_detect == 0) {
          first_detect = t;
        }
      });

  ConvResult out;
  sim::Time dissem_at = 0, end_at = 0;
  cluster.spawn(0, "supervisor", [&](Endpoint&) {
    const sim::Time deadline = crash_at + svc.detection_bound();
    for (;;) {
      bool all = true;
      for (int n = 0; n < nodes && all; ++n) {
        if (n != victim && !svc.view(n).is_down(victim)) all = false;
      }
      if (all) {
        out.converged = true;
        dissem_at = cluster.sim().now();
        break;
      }
      if (cluster.sim().now() > deadline) break;
      sim::Process::current()->delay(sim::us(50));
    }
    end_at = cluster.sim().now();
    svc.stop();
  });
  cluster.run();

  for (int n = 0; n < nodes; ++n) {
    if (n == victim) continue;
    for (int p = 0; p < nodes; ++p) {
      if (p != victim && svc.view(n).is_down(p)) ++out.false_positives;
    }
  }
  out.detect_ms = sim::to_us(first_detect - crash_at) / 1000.0;
  out.dissem_ms = out.converged ? sim::to_us(dissem_at - crash_at) / 1000.0 : 0;
  out.sim_ms = sim::to_us(end_at) / 1000.0;

  stats::Counters all = svc.aggregate_counters();
  const auto probes = all.get("member_probe_msgs");
  if (out.sim_ms > 0) {
    out.probes_per_node_ms =
        static_cast<double>(probes) / nodes / out.sim_ms;
  }
  bench::merge_engine_counters(cluster, nodes, all);
  out.counters_fnv = bench::counters_fingerprint(all);
  return out;
}

// ---------------------------------------------------------------------------
// KV scaling
// ---------------------------------------------------------------------------

struct KvResult {
  double sim_ms = 0;
  double kops = 0;
  std::uint64_t gets = 0, puts = 0, errors = 0;
  std::uint64_t counters_fnv = 0;
};

std::string scale_key(int k) { return bench::bench_key(k); }

KvResult run_kv(int nodes, int ops_per_client) {
  Cluster cluster(fabric_config(nodes));

  kv::KvConfig cfg;
  cfg.partitions = std::max(32, nodes);
  cfg.clients_per_node = 1;
  cfg.slots_per_partition = 64;
  cfg.buckets_per_partition = 32;
  cfg.max_value_bytes = 256;
  cfg.rpc_timeout = sim::ms(5);
  cfg.get_timeout = sim::ms(5);
  kv::System sys(cluster, cfg);

  const int keys = 4 * nodes;
  const std::string value(256, 'v');
  kv::HostBarrier loaded;
  sim::Time t0 = 0, t1 = 0;
  KvResult r;
  for (int node = 0; node < nodes; ++node) {
    sys.spawn_client(node, "load" + std::to_string(node), [&, node](
                                                              kv::Client& cl) {
      for (int k = node; k < keys; k += nodes) {
        if (cl.put(scale_key(k), value) != kv::Status::kOk) ++r.errors;
      }
      loaded.arrive_and_wait(nodes);
      t0 = cluster.sim().now();
      std::mt19937_64 rng(kv::mix64(0x5ca1eull ^ node));
      std::string got;
      for (int i = 0; i < ops_per_client; ++i) {
        const int k = static_cast<int>(rng() % keys);
        if (rng() % 2 == 0) {
          if (cl.get(scale_key(k), &got) != kv::Status::kOk) ++r.errors;
          ++r.gets;
        } else {
          if (cl.put(scale_key(k), value) != kv::Status::kOk) ++r.errors;
          ++r.puts;
        }
      }
      t1 = cluster.sim().now();
    });
  }
  cluster.run();

  r.sim_ms = sim::to_us(t1 - t0) / 1000.0;
  if (r.sim_ms > 0) {
    r.kops = static_cast<double>(r.gets + r.puts) / r.sim_ms;
  }
  stats::Counters all = sys.aggregate_counters();
  bench::merge_engine_counters(cluster, nodes, all);
  r.counters_fnv = bench::counters_fingerprint(all);
  return r;
}

// ---------------------------------------------------------------------------
// Collective scaling
// ---------------------------------------------------------------------------

struct CollResult {
  double per_op_us = 0;
  std::uint64_t counters_fnv = 0;
};

CollResult run_coll(int nodes, bool allreduce, int iters) {
  Cluster cluster(fabric_config(nodes));

  const std::size_t bytes = 16 << 10;  // all-reduce payload per node
  coll::CollConfig cc;
  cc.max_data_bytes = 64 << 10;
  coll::CollDomain domain(cluster, cc);

  sim::Time t0 = 0, t1 = 0;
  for (int i = 0; i < nodes; ++i) {
    cluster.spawn(i, "coll", [&, i](Endpoint& ep) {
      coll::Communicator comm(domain, ep);
      std::uint64_t send_va = 0;
      if (allreduce) {
        send_va = ep.memory().alloc(bytes, 64);
        auto* v = ep.memory().as<double>(send_va);
        for (std::size_t e = 0; e < bytes / 8; ++e) {
          v[e] = static_cast<double>(i + 1) * static_cast<double>(e % 97);
        }
      }
      comm.barrier();  // rendezvous; excluded from the measured section
      if (i == 0) t0 = cluster.sim().now();
      for (int it = 0; it < iters; ++it) {
        if (allreduce) {
          comm.all_reduce(send_va, static_cast<std::uint32_t>(bytes / 8),
                          coll::DType::kF64, coll::ReduceOp::kSum);
        } else {
          comm.barrier();
        }
      }
      if (allreduce) comm.barrier();
      if (i == 0) t1 = cluster.sim().now();
    });
  }
  cluster.run();

  CollResult r;
  r.per_op_us = sim::to_us(t1 - t0) / iters;
  stats::Counters all;
  bench::merge_engine_counters(cluster, nodes, all);
  r.counters_fnv = bench::counters_fingerprint(all);
  return r;
}

// ---------------------------------------------------------------------------
// Sweep assembly
// ---------------------------------------------------------------------------

struct Row {
  std::string name;
  std::string kind;  // "member", "kv", "coll"
  int nodes = 0;
  ConvResult conv;
  KvResult kv;
  CollResult coll;
  std::uint64_t fnv() const {
    if (kind == "member") return conv.counters_fnv;
    if (kind == "kv") return kv.counters_fnv;
    return coll.counters_fnv;
  }
};

const Row* find(const std::vector<Row>& rows, const std::string& name) {
  for (const Row& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

bool check_headlines(const std::vector<Row>& rows) {
  bool ok = true;
  for (const Row& r : rows) {
    if (r.kind == "member") {
      if (!r.conv.converged || r.conv.false_positives != 0) {
        std::cerr << "CHECK FAIL: " << r.name << " converged="
                  << r.conv.converged << " false_positives="
                  << r.conv.false_positives << '\n';
        ok = false;
      }
    }
    if (r.kind == "kv" && r.kv.errors != 0) {
      std::cerr << "CHECK FAIL: " << r.name << " had " << r.kv.errors
                << " failed ops\n";
      ok = false;
    }
  }

  const Row* swim16 = find(rows, "member-swim-n16");
  const Row* mesh16 = find(rows, "member-mesh-n16");
  if (swim16 && mesh16 && mesh16->conv.dissem_ms > 0) {
    const double ratio = swim16->conv.dissem_ms / mesh16->conv.dissem_ms;
    if (ratio > 2.0) {
      std::cerr << "CHECK FAIL: SWIM dissemination at 16 nodes ("
                << swim16->conv.dissem_ms << " ms) exceeds 2x the mesh ("
                << mesh16->conv.dissem_ms << " ms)\n";
      ok = false;
    } else {
      std::cout << "convergence OK: SWIM disseminates a crash in "
                << swim16->conv.dissem_ms << " ms vs mesh "
                << mesh16->conv.dissem_ms << " ms at 16 nodes (" << ratio
                << "x)\n";
    }
  }

  const Row* swim128 = find(rows, "member-swim-n128");
  const Row* mesh128 = find(rows, "member-mesh-n128");
  if (swim128 && mesh128 && swim128->conv.probes_per_node_ms > 0) {
    const double ratio =
        mesh128->conv.probes_per_node_ms / swim128->conv.probes_per_node_ms;
    if (ratio < 8.0) {
      std::cerr << "CHECK FAIL: at 128 nodes the mesh sends only " << ratio
                << "x SWIM's per-node probe rate (need >= 8x — SWIM's O(1) "
                   "probing is the point)\n";
      ok = false;
    } else {
      std::cout << "probe asymptotics OK: per-node probe msgs/ms at 128 "
                   "nodes: mesh "
                << mesh128->conv.probes_per_node_ms << " vs SWIM "
                << swim128->conv.probes_per_node_ms << " (" << ratio << "x)\n";
    }
  }

  const Row* bar16 = find(rows, "coll-barrier-n16");
  const Row* bar128 = find(rows, "coll-barrier-n128");
  if (bar16 && bar128 && bar16->coll.per_op_us > 0) {
    const double ratio = bar128->coll.per_op_us / bar16->coll.per_op_us;
    if (ratio >= 8.0) {
      std::cerr << "CHECK FAIL: barrier latency grew " << ratio
                << "x from 16 to 128 nodes — the log-depth barrier should "
                   "scale sub-linearly\n";
      ok = false;
    } else {
      std::cout << "barrier scaling OK: " << bar16->coll.per_op_us
                << " us at 16 nodes -> " << bar128->coll.per_op_us
                << " us at 128 (" << ratio << "x for 8x nodes)\n";
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "BENCH_scale.json");

  std::cout << "== scale_bench: membership convergence + KV/collective "
               "scaling at 16-128 nodes (simulated) ==\n\n";

  std::vector<int> scales = {16, 64, 128};
  if (args.quick) scales = {16, 64};

  std::vector<Row> rows;

  // Detector convergence: SWIM at every scale, the mesh baseline at the
  // endpoints (its 128-node row exists to price O(n) probing, not to win).
  for (int n : scales) {
    Row r{"member-swim-n" + std::to_string(n), "member", n, {}, {}, {}};
    r.conv = run_convergence(n, /*mesh=*/false);
    rows.push_back(r);
  }
  for (int n : scales) {
    if (n != 16 && n != 128) continue;
    Row r{"member-mesh-n" + std::to_string(n), "member", n, {}, {}, {}};
    r.conv = run_convergence(n, /*mesh=*/true);
    rows.push_back(r);
  }

  // KV and collective scaling on the hierarchical fabric.
  const int kv_ops = args.quick ? 15 : 40;
  for (int n : scales) {
    Row r{"kv-scale-n" + std::to_string(n), "kv", n, {}, {}, {}};
    r.kv = run_kv(n, kv_ops);
    rows.push_back(r);
  }
  const int bar_iters = args.quick ? 10 : 30;
  const int ar_iters = args.quick ? 2 : 4;
  for (int n : scales) {
    Row r{"coll-barrier-n" + std::to_string(n), "coll", n, {}, {}, {}};
    r.coll = run_coll(n, /*allreduce=*/false, bar_iters);
    rows.push_back(r);
    Row a{"coll-allreduce-n" + std::to_string(n) + "-16KB", "coll", n, {}, {},
          {}};
    a.coll = run_coll(n, /*allreduce=*/true, ar_iters);
    rows.push_back(a);
  }

  stats::Table t({"workload", "nodes", "detect(ms)", "dissem(ms)",
                  "probes/node/ms", "Kops/s", "op(us)", "counters"});
  for (const Row& r : rows) {
    auto row = t.row();
    row.cell(r.name).cell(static_cast<std::uint64_t>(r.nodes));
    if (r.kind == "member") {
      row.cell(r.conv.detect_ms, 2)
          .cell(r.conv.dissem_ms, 2)
          .cell(r.conv.probes_per_node_ms, 1)
          .cell("-")
          .cell("-");
    } else if (r.kind == "kv") {
      row.cell("-").cell("-").cell("-").cell(r.kv.kops, 1).cell("-");
    } else {
      row.cell("-").cell("-").cell("-").cell("-").cell(r.coll.per_op_us, 1);
    }
    row.cell(bench::hex(r.fnv()));
  }
  t.print(std::cout);

  const bool headlines_ok = check_headlines(rows);

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << "{\n  \"benchmark\": \"scale\",\n  \"quick\": "
        << (args.quick ? "true" : "false") << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"name\": \"" << r.name << "\", \"kind\": \"" << r.kind
          << "\", \"nodes\": " << r.nodes;
      if (r.kind == "member") {
        out << ", \"detect_ms\": " << stats::json::number(r.conv.detect_ms)
            << ", \"dissem_ms\": " << stats::json::number(r.conv.dissem_ms)
            << ", \"probes_per_node_ms\": "
            << stats::json::number(r.conv.probes_per_node_ms)
            << ", \"false_positives\": " << r.conv.false_positives;
      } else if (r.kind == "kv") {
        out << ", \"kops\": " << stats::json::number(r.kv.kops)
            << ", \"sim_ms\": " << stats::json::number(r.kv.sim_ms)
            << ", \"gets\": " << r.kv.gets << ", \"puts\": " << r.kv.puts
            << ", \"errors\": " << r.kv.errors;
      } else {
        out << ", \"per_op_us\": " << stats::json::number(r.coll.per_op_us);
      }
      out << ", \"counters_fnv1a\": \"" << bench::hex(r.fnv()) << "\"}"
          << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << args.json_path << '\n';
  }

  if (!args.check_path.empty()) {
    stats::json::Value doc;
    if (!bench::load_baseline(args.check_path, &doc)) return 1;
    bool ok = headlines_ok;
    ok &= bench::check_fingerprints(
        doc,
        [&](const std::string& name) -> const std::uint64_t* {
          static std::uint64_t tmp;
          const Row* r = find(rows, name);
          if (!r) return nullptr;
          tmp = r->fnv();
          return &tmp;
        },
        "scale-out");
    if (!ok) return 1;
    std::cout << "check OK: headline properties hold, fingerprints match\n";
  }
  return headlines_ok ? 0 : 1;
}
