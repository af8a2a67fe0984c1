// Simulator self-throughput benchmark: how fast the *host* executes the
// simulation, independent of simulated time. This is the perf trajectory
// tracker for the hot path (frame pool, window rings, event queue): it runs
// the fig2 micro-benchmark workloads and reports wall-clock frames/sec and
// events/sec, plus an FNV-1a fingerprint of the protocol counters so a
// speedup can be shown to come with bit-identical protocol behavior.
//
// Every run also counts heap allocations (alloc_count.hpp) and fiber
// resumes (sim::Simulator::fiber_counts) per write inside cluster.run() and
// exits non-zero if a workload exceeds its fixed ceilings: deterministic
// host-work counts, unlike the wall-clock rates.
//
// Usage: simspeed [--quick] [--repeat=N] [--json[=path]] [--check=<baseline>]
//   --json   writes the machine-readable BENCH_simspeed.json artifact.
//   --check  loads a previously committed artifact, reruns the workloads,
//            and exits non-zero if total frames/sec regressed by more than
//            20%, or if any workload's counter fingerprint or simulator
//            event count changed (CI smoke stage; see scripts/ci.sh).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench_common.hpp"
#include "core/api.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

namespace {

using namespace multiedge;

struct Workload {
  std::string name;
  ClusterConfig cfg;
  bool two_way = false;
  std::size_t msg_bytes = 64 * 1024;
  int messages = 256;
  // Ceilings on heap allocations (see alloc_count.hpp) and on fiber
  // resumes inside cluster.run() per rdma_write, enforced on every run.
  double max_allocs_per_op = 0;
  double max_resumes_per_op = 0;
};

std::vector<Workload> workloads(bool quick) {
  const int msgs = quick ? 48 : 256;
  ClusterConfig lossy = config_2l_1g(2);
  lossy.topology.link.drop_prob = 0.01;
  lossy.protocol.window_frames = 16;
  // Small-op pair: identical bursts of 64-byte writes with submission
  // batching + selective signaling off vs on. The uplift gate (see
  // kMinSmallOpSpeedup) is on SIMULATED completion time — host costs per op
  // drop — so it is exact and deterministic, not wall-clock noise.
  const int small_ops = quick ? 600 : 4000;
  ClusterConfig batched = config_1l_1g(2);
  batched.protocol.batch_submission = true;
  batched.protocol.submit_ring_slots = 16;
  batched.protocol.signal_interval = 32;
  // Allocation ceilings sit about 1.2x above the larger of the --quick and
  // full counts (oneway 53.5, twoway 42.6, retx 39.1, smallop 1.3). A 64 KiB
  // write costs more because the burst's frames outgrow the frame pool's
  // idle list. Resume ceilings do the same (oneway 1.19, twoway 1.15, retx
  // 1.17, smallop-unbatched 2.01, smallop-batched 1.07); twoway's waiters
  // would cost 2.1 with a switch per wakeup.
  return {
      {"oneway-1L-1G", config_1l_1g(2), false, 64 * 1024, msgs, 64, 1.4},
      {"twoway-2Lu-1G", config_2lu_1g(2), true, 64 * 1024, msgs, 51, 1.4},
      {"retx-2L-1G-drop1", lossy, false, 64 * 1024, msgs, 47, 1.4},
      {"smallop-unbatched", config_1l_1g(2), false, 64, small_ops, 1.6, 2.4},
      {"smallop-batched", batched, false, 64, small_ops, 1.6, 1.3},
  };
}

// Gate for the smallop-batched vs smallop-unbatched simulated-time speedup
// (enforced on --check against the committed BENCH_simspeed.json).
constexpr double kMinSmallOpSpeedup = 1.3;

struct RunStats {
  std::uint64_t frames = 0;  // data + explicit ack frames put on the wire
  std::uint64_t events = 0;  // simulator events executed
  double allocs_per_op = 0;  // heap allocations in cluster.run() per write
  double resumes_per_op = 0;   // fiber resumes per write
  double requeues_per_op = 0;  // wakeups re-queued without a resume, per write
  double wall_ms = 0;  // cluster.run() only
  double build_ms = 0;
  double teardown_ms = 0;
  double sim_ms = 0;
  std::uint64_t counters_fnv = 0;  // fingerprint of aggregate counters
};

// One full run of `w` on a fresh cluster, timed in three phases: build
// (construction, allocs, spawns), run (handshake included) and teardown.
RunStats run_workload(const Workload& w) {
  const auto b0 = std::chrono::steady_clock::now();
  auto owned = std::make_unique<Cluster>(w.cfg);
  Cluster& cluster = *owned;
  const auto size = static_cast<std::uint32_t>(w.msg_bytes);
  const std::uint64_t src0 = cluster.memory(0).alloc(w.msg_bytes);
  const std::uint64_t dst0 = cluster.memory(0).alloc(w.msg_bytes);
  const std::uint64_t src1 = cluster.memory(1).alloc(w.msg_bytes);
  const std::uint64_t dst1 = cluster.memory(1).alloc(w.msg_bytes);

  // Ordering guard for the last op's completion notification (same trick as
  // run_micro): in out-of-order mode it must not overtake earlier ops.
  const auto last_flags = static_cast<std::uint16_t>(
      kOpFlagNotify |
      (w.cfg.protocol.in_order_delivery ? kOpFlagNone : kOpFlagBackwardFence));

  const auto none = static_cast<std::uint16_t>(kOpFlagNone);
  cluster.spawn(0, "fwd", [&](Endpoint& ep) {
    Connection c = ep.connect(1);
    for (int i = 0; i < w.messages; ++i) {
      c.rdma_write(dst1, src0, size, i + 1 == w.messages ? last_flags : none);
    }
    // Under batching the tail of the burst (final notify included) may be
    // parked in the submission ring; ring the doorbell before the fiber
    // exits rather than relying on the protocol thread's idle sweep.
    if (w.cfg.protocol.batch_submission) ep.flush();
  });
  cluster.spawn(1, "rcv", [&](Endpoint& ep) {
    Connection c = ep.accept(0);
    if (w.two_way) {
      for (int i = 0; i < w.messages; ++i) {
        c.rdma_write(dst0, src1, size, i + 1 == w.messages ? last_flags : none);
      }
    }
    ep.wait_notification();
  });
  if (w.two_way) {
    cluster.spawn(0, "fin", [&](Endpoint& ep) { ep.wait_notification(); });
  }

  const std::uint64_t allocs0 = bench::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = bench::alloc_count() - allocs0;

  stats::Counters all = cluster.engine(0).aggregate_counters();
  all.merge(cluster.engine(1).aggregate_counters());

  RunStats r;
  r.frames = all.get("data_frames_sent") + all.get("ack_frames_sent");
  r.events = cluster.sim().events_executed();
  const auto writes = static_cast<double>(w.messages * (w.two_way ? 2 : 1));
  r.allocs_per_op = static_cast<double>(allocs) / writes;
  r.resumes_per_op =
      static_cast<double>(cluster.sim().fiber_counts().resumes) / writes;
  r.requeues_per_op =
      static_cast<double>(cluster.sim().fiber_counts().requeues) / writes;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.sim_ms = sim::to_us(cluster.sim().now()) / 1000.0;
  r.counters_fnv = bench::counters_fingerprint(all);
  const auto d0 = std::chrono::steady_clock::now();
  owned.reset();
  r.build_ms = std::chrono::duration<double, std::milli>(t0 - b0).count();
  r.teardown_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - d0).count();
  return r;
}

// Best-of-N wall, build and teardown times; frames/events/fingerprint must
// not vary across repeats (same seed), so they are taken from the first run
// and checked.
RunStats measure(const Workload& w, int repeat) {
  RunStats best = run_workload(w);
  for (int i = 1; i < repeat; ++i) {
    RunStats r = run_workload(w);
    if (r.frames != best.frames || r.counters_fnv != best.counters_fnv) {
      std::cerr << "ERROR: workload " << w.name
                << " is not deterministic across repeats\n";
      std::exit(2);
    }
    best.wall_ms = std::min(best.wall_ms, r.wall_ms);
    best.build_ms = std::min(best.build_ms, r.build_ms);
    best.teardown_ms = std::min(best.teardown_ms, r.teardown_ms);
  }
  return best;
}

double per_sec(std::uint64_t n, double wall_ms) {
  return wall_ms > 0 ? static_cast<double>(n) / (wall_ms / 1000.0) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, "BENCH_simspeed.json", /*default_repeat=*/3);
  const bool quick = args.quick;
  const int repeat = args.repeat;
  const std::string& json_path = args.json_path;
  const std::string& check_path = args.check_path;

  std::cout << "== simspeed: simulator self-throughput (wall-clock) ==\n"
            << "frames = data+ack frames on the wire; events = simulator "
               "events executed; best of " << repeat << " runs\n\n";

  stats::Table t({"workload", "frames", "events", "allocs/op", "resumes/op",
                  "requeues/op", "wall(ms)",
                  "build_ms", "teardown_ms", "sim(ms)", "Kframes/s",
                  "Kevents/s", "counters"});
  std::vector<std::pair<Workload, RunStats>> results;
  RunStats total;
  for (const Workload& w : workloads(quick)) {
    RunStats r = measure(w, repeat);
    results.emplace_back(w, r);
    total.frames += r.frames;
    total.events += r.events;
    total.wall_ms += r.wall_ms;
    t.row()
        .cell(w.name)
        .cell(r.frames)
        .cell(r.events)
        .cell(r.allocs_per_op, 1)
        .cell(r.resumes_per_op, 2)
        .cell(r.requeues_per_op, 2)
        .cell(r.wall_ms, 1)
        .cell(r.build_ms, 2)
        .cell(r.teardown_ms, 2)
        .cell(r.sim_ms, 1)
        .cell(per_sec(r.frames, r.wall_ms) / 1e3, 1)
        .cell(per_sec(r.events, r.wall_ms) / 1e3, 1)
        .cell(bench::hex(r.counters_fnv));
  }
  t.print(std::cout);
  bool counts_ok = true;
  for (const auto& [w, r] : results) {
    counts_ok &= bench::check_per_op(w.name, "heap allocations",
                                     r.allocs_per_op, w.max_allocs_per_op);
    counts_ok &= bench::check_per_op(w.name, "fiber resumes",
                                     r.resumes_per_op, w.max_resumes_per_op);
  }
  const double total_fps = per_sec(total.frames, total.wall_ms);
  std::cout << "\ntotal: " << total.frames << " frames / " << total.events
            << " events in " << total.wall_ms << " ms  =>  "
            << total_fps / 1e3 << " Kframes/s, "
            << per_sec(total.events, total.wall_ms) / 1e3 << " Kevents/s\n";

  // --- small-op batching uplift (simulated time, deterministic) -----------
  auto find_run = [&](const char* name) -> const RunStats& {
    for (const auto& [w, r] : results) {
      if (w.name == name) return r;
    }
    std::cerr << "ERROR: missing workload " << name << '\n';
    std::exit(2);
  };
  const RunStats& r_soff = find_run("smallop-unbatched");
  const RunStats& r_son = find_run("smallop-batched");
  const double small_speedup =
      r_son.sim_ms > 0 ? r_soff.sim_ms / r_son.sim_ms : 0.0;
  std::cout << "\n== small-op batching (64 B writes, simulated time) ==\n"
            << "unbatched " << r_soff.sim_ms << " ms -> batched "
            << r_son.sim_ms << " ms: speedup " << small_speedup << "x (gate >= "
            << kMinSmallOpSpeedup << "x)\n";

  // --- trace overhead: the recorder must be a pure observer ---------------
  // Rerun the first workload with the flight recorder and with full tracing
  // enabled. Wall-clock cost is reported; the protocol counter fingerprint
  // must be bit-identical to the trace-off run — recording may never perturb
  // simulated behavior.
  const Workload base_w = workloads(quick)[0];
  Workload flight_w = base_w;
  flight_w.cfg.trace.flight_recorder = true;
  Workload full_w = base_w;
  full_w.cfg.trace.enabled = true;
  const RunStats& r_off = results[0].second;
  const RunStats r_flight = measure(flight_w, repeat);
  const RunStats r_full = measure(full_w, repeat);
  if (r_flight.counters_fnv != r_off.counters_fnv ||
      r_full.counters_fnv != r_off.counters_fnv) {
    std::cerr << "ERROR: tracing perturbed protocol counters (" << base_w.name
              << "): off=" << bench::hex(r_off.counters_fnv)
              << " flight=" << bench::hex(r_flight.counters_fnv)
              << " full=" << bench::hex(r_full.counters_fnv) << '\n';
    return 2;
  }
  auto overhead_pct = [&](const RunStats& r) {
    return r_off.wall_ms > 0 ? (r.wall_ms - r_off.wall_ms) / r_off.wall_ms * 100.0
                             : 0.0;
  };
  std::cout << "\n== trace overhead (" << base_w.name
            << ", counters bit-identical across modes) ==\n";
  stats::Table ot({"mode", "wall(ms)", "Kframes/s", "overhead(%)"});
  ot.row().cell("off").cell(r_off.wall_ms, 1)
      .cell(per_sec(r_off.frames, r_off.wall_ms) / 1e3, 1).cell(0.0, 1);
  ot.row().cell("flight-recorder").cell(r_flight.wall_ms, 1)
      .cell(per_sec(r_flight.frames, r_flight.wall_ms) / 1e3, 1)
      .cell(overhead_pct(r_flight), 1);
  ot.row().cell("full-tracing").cell(r_full.wall_ms, 1)
      .cell(per_sec(r_full.frames, r_full.wall_ms) / 1e3, 1)
      .cell(overhead_pct(r_full), 1);
  ot.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"simspeed\",\n  \"quick\": "
        << (quick ? "true" : "false") << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& [w, r] = results[i];
      out << "    {\"name\": \"" << w.name << "\", \"frames\": " << r.frames
          << ", \"events\": " << r.events
          << ", \"allocs_per_op\": " << stats::json::number(r.allocs_per_op)
          << ", \"resumes_per_op\": " << stats::json::number(r.resumes_per_op)
          << ", \"requeues_per_op\": "
          << stats::json::number(r.requeues_per_op)
          << ", \"wall_ms\": " << stats::json::number(r.wall_ms)
          << ", \"build_ms\": " << stats::json::number(r.build_ms)
          << ", \"teardown_ms\": " << stats::json::number(r.teardown_ms)
          << ", \"sim_ms\": " << stats::json::number(r.sim_ms)
          << ", \"frames_per_sec\": "
          << stats::json::number(per_sec(r.frames, r.wall_ms))
          << ", \"events_per_sec\": "
          << stats::json::number(per_sec(r.events, r.wall_ms))
          << ", \"counters_fnv1a\": \"" << bench::hex(r.counters_fnv) << "\"}"
          << (i + 1 < results.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"trace_overhead\": {\"workload\": \"" << base_w.name
        << "\", \"off_wall_ms\": " << stats::json::number(r_off.wall_ms)
        << ", \"flight_wall_ms\": " << stats::json::number(r_flight.wall_ms)
        << ", \"full_wall_ms\": " << stats::json::number(r_full.wall_ms)
        << ", \"flight_overhead_pct\": "
        << stats::json::number(overhead_pct(r_flight))
        << ", \"full_overhead_pct\": "
        << stats::json::number(overhead_pct(r_full))
        << ", \"counters_identical\": true},\n";
    out << "  \"small_op\": {\"unbatched\": \"smallop-unbatched\", "
        << "\"batched\": \"smallop-batched\", \"sim_ms_unbatched\": "
        << stats::json::number(r_soff.sim_ms) << ", \"sim_ms_batched\": "
        << stats::json::number(r_son.sim_ms) << ", \"sim_speedup\": "
        << stats::json::number(small_speedup) << ", \"min_speedup\": "
        << stats::json::number(kMinSmallOpSpeedup) << "},\n";
    out << "  \"total\": {\"frames\": " << total.frames
        << ", \"events\": " << total.events
        << ", \"wall_ms\": " << stats::json::number(total.wall_ms)
        << ", \"frames_per_sec\": " << stats::json::number(total_fps)
        << ", \"events_per_sec\": "
        << stats::json::number(per_sec(total.events, total.wall_ms))
        << "}\n}\n";
    std::cout << "wrote " << json_path << '\n';
  }

  if (!check_path.empty()) {
    stats::json::Value doc;
    if (!bench::load_baseline(check_path, &doc)) return 1;
    const stats::json::Value* tot = doc.find("total");
    const stats::json::Value* base_fps =
        tot ? tot->find("frames_per_sec") : nullptr;
    if (!base_fps || !base_fps->is_number()) {
      std::cerr << "ERROR: baseline missing total.frames_per_sec\n";
      return 1;
    }
    // Counter fingerprints and event counts are exact (deterministic
    // simulation); wall-clock throughput gets a 20% noise allowance.
    bool ok = counts_ok;
    auto find_result = [&](const std::string& name) -> const RunStats* {
      for (const auto& [w, r] : results) {
        if (w.name == name) return &r;
      }
      return nullptr;
    };
    ok &= bench::check_fingerprints(
        doc,
        [&](const std::string& name) -> const std::uint64_t* {
          const RunStats* r = find_result(name);
          return r ? &r->counters_fnv : nullptr;
        },
        "protocol");
    if (const stats::json::Value* wl = doc.find("workloads")) {
      for (const auto& e : wl->array) {
        const stats::json::Value* name = e.find("name");
        const stats::json::Value* events = e.find("events");
        const RunStats* r = name ? find_result(name->string) : nullptr;
        if (!r || !events || !events->is_number()) continue;
        if (static_cast<double>(r->events) != events->number) {
          std::cerr << "CHECK FAIL: workload " << name->string << " executed "
                    << r->events << " simulator events, baseline "
                    << events->number << " — the event schedule changed\n";
          ok = false;
        }
      }
    }
    const double floor = base_fps->number * 0.8;
    if (total_fps < floor) {
      std::cerr << "CHECK FAIL: total frames/sec " << total_fps
                << " regressed >20% vs baseline " << base_fps->number << '\n';
      ok = false;
    }
    // Small-op uplift gate: simulated-time speedup must stay at or above the
    // baseline's committed floor (exact, no noise allowance needed).
    const stats::json::Value* so = doc.find("small_op");
    const stats::json::Value* gate = so ? so->find("min_speedup") : nullptr;
    const double min_speedup =
        gate && gate->is_number() ? gate->number : kMinSmallOpSpeedup;
    if (small_speedup < min_speedup) {
      std::cerr << "CHECK FAIL: small-op batching speedup " << small_speedup
                << "x below gate " << min_speedup << "x\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "check OK: " << total_fps << " frames/s vs baseline "
              << base_fps->number << " (floor " << floor
              << "), fingerprints and event counts match\n";
  }
  return counts_ok ? 0 : 1;
}
