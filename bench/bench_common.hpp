// Shared scaffolding for the benchmark binaries (simspeed, coll_bench,
// kv_bench): command-line parsing, the counters fingerprint, and the
// baseline-JSON helpers used by --check.
//
// Every bench speaks the same CLI dialect:
//   [--quick] [--repeat=N] [--json[=path]] [--check=<baseline>]
// and emits a JSON artifact whose "workloads" array carries one
// "counters_fnv1a" fingerprint per workload. The simulation is
// deterministic, so --check compares fingerprints EXACTLY: any drift means
// behavior changed, not noise.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/json.hpp"

namespace multiedge::bench {

struct Args {
  bool quick = false;
  int repeat = 1;
  std::string json_path;   // empty: no artifact
  std::string check_path;  // empty: no baseline check
};

inline Args parse_args(int argc, char** argv, std::string_view default_json,
                       int default_repeat = 1) {
  Args a;
  a.repeat = default_repeat;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) a.quick = true;
    if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      a.repeat = std::atoi(argv[i] + 9);
    }
    if (std::strcmp(argv[i], "--json") == 0) a.json_path = default_json;
    if (std::strncmp(argv[i], "--json=", 7) == 0) a.json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--check=", 8) == 0) a.check_path = argv[i] + 8;
  }
  a.repeat = std::max(a.repeat, 1);
  return a;
}

inline std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// Order-independent-enough fingerprint of a counter set: Counters::all()
/// iterates in sorted order, so equal counter maps hash equal.
inline std::uint64_t counters_fingerprint(const stats::Counters& c) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : c.all()) {
    h = fnv1a(h, name);
    h = fnv1a(h, "=");
    h = fnv1a(h, std::to_string(value));
    h = fnv1a(h, "\n");
  }
  return h;
}

/// Load and parse a --check baseline; prints the failure reason on stderr.
inline bool load_baseline(const std::string& path, stats::json::Value* doc) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ERROR: cannot open baseline " << path << '\n';
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!stats::json::parse(ss.str(), *doc, &err)) {
    std::cerr << "ERROR: bad baseline JSON: " << err << '\n';
    return false;
  }
  return true;
}

/// Compare the baseline's per-workload "counters_fnv1a" fields against the
/// fresh run. `lookup` maps a workload name to its fresh fingerprint
/// (nullptr: workload absent from this run, skipped — lets a baseline from a
/// full run check a --quick rerun). `what` names the behavior in the
/// failure message, e.g. "protocol".
inline bool check_fingerprints(
    const stats::json::Value& doc,
    const std::function<const std::uint64_t*(const std::string&)>& lookup,
    const char* what) {
  bool ok = true;
  const stats::json::Value* wl = doc.find("workloads");
  if (!wl || !wl->is_array()) return ok;
  for (const auto& e : wl->array) {
    const stats::json::Value* name = e.find("name");
    const stats::json::Value* fnv = e.find("counters_fnv1a");
    if (!name || !fnv) continue;
    const std::uint64_t* fresh = lookup(name->string);
    if (fresh && hex(*fresh) != fnv->string) {
      std::cerr << "CHECK FAIL: workload " << name->string
                << " counters fingerprint drifted (baseline " << fnv->string
                << ", now " << hex(*fresh) << ") — " << what
                << " behavior changed\n";
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Shared load-generation pieces (kv_bench, scale_bench, svc_bench)
// ---------------------------------------------------------------------------

/// YCSB-style zipfian generator over [0, n): theta skew, computed from a
/// uniform double in [0,1). Gray's rejection-free construction.
class ZipfGen {
 public:
  ZipfGen(std::uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    zeta2_ = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
  }

  std::uint64_t next(double u) const {
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    const auto k = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return k >= n_ ? n_ - 1 : k;
  }

 private:
  std::uint64_t n_;
  double zetan_, zeta2_, alpha_, eta_;
};

/// Canonical bench key format ("k%06d"): every KV bench uses the same string
/// keys so fingerprints stay comparable across binaries.
inline std::string bench_key(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", k);
  return buf;
}

/// Merge the per-node protocol-engine counters into `all` (node order, the
/// order every bench has always used — part of the fingerprint).
template <typename ClusterT>
inline void merge_engine_counters(ClusterT& cluster, int nodes,
                                  stats::Counters& all) {
  for (int i = 0; i < nodes; ++i) {
    all.merge(cluster.engine(i).aggregate_counters());
  }
}

/// `n` per KV client op (GET/PUT/DELETE, preload included); `kv` is the
/// kv::System's aggregate counters.
inline double kv_per_op(std::uint64_t n, const stats::Counters& kv) {
  const std::uint64_t ops =
      kv.get("kv_gets") + kv.get("kv_puts") + kv.get("kv_dels");
  return ops ? static_cast<double>(n) / static_cast<double>(ops) : 0.0;
}

/// Simulator events per KV client op over the whole run: a deterministic
/// count of host work per op. The kv and svc benches hold every row under a
/// fixed ceiling, so a sim-time poll loop (one timer event and one fiber
/// switch per tick per waiting fiber) fails the gate even though it barely
/// moves modelled latency.
template <typename ClusterT>
inline double kv_events_per_op(ClusterT& cluster, const stats::Counters& kv) {
  return kv_per_op(cluster.sim().events_executed(), kv);
}

/// Gate for a deterministic per-op host-work count (`what`: "simulator
/// events", "heap allocations"): false (with a message) above `ceiling`.
inline bool check_per_op(const std::string& name, const char* what,
                         double value, double ceiling) {
  if (value <= ceiling) return true;
  std::cerr << "CHECK FAIL: " << name << " costs " << value << ' ' << what
            << " per op, above the ceiling " << ceiling << '\n';
  return false;
}

inline double ns_to_us(std::uint64_t ns) {
  return static_cast<double>(ns) / 1000.0;
}

// ---------------------------------------------------------------------------
// Open-loop arrival schedules + accounting
// ---------------------------------------------------------------------------
//
// Closed loops cannot show overload: each client waits for its previous op,
// so offered load self-throttles to match service capacity and the system
// never sees more work than it can do. An OPEN loop fixes the arrival
// process instead — requests arrive on a schedule independent of
// completions, latency is measured from the SCHEDULED arrival (wrk2-style,
// so queueing behind a slow op is charged to the ops stuck behind it, not
// hidden by coordinated omission), and a client that has fallen hopelessly
// behind sheds arrivals explicitly rather than silently compressing the
// offered load.

/// One client fiber's arrival process. Deterministic given the seed.
struct ArrivalConfig {
  double mean_interarrival_us = 100.0;  // 1/rate, simulated
  int count = 100;                      // arrivals to schedule
  std::uint64_t seed = 1;
  // Markov-modulated Poisson (2-state on/off burst model). During ON the
  // inter-arrival mean shrinks to mean*on_fraction so the long-run offered
  // rate matches the Poisson case; during OFF no arrivals occur. Phase
  // durations are exponential with mean phase_mean_us.
  bool bursty = false;
  double on_fraction = 0.25;
  double phase_mean_us = 400.0;
};

/// Absolute arrival offsets in simulated ns from the window start,
/// non-decreasing.
inline std::vector<std::uint64_t> make_arrivals(const ArrivalConfig& cfg) {
  std::mt19937_64 rng(cfg.seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  // Inverse-CDF exponential from the engine's uniform keeps the stream
  // deterministic across library implementations.
  auto expo = [&](double mean_us) {
    const double u = std::max(u01(rng), 1e-12);
    return -mean_us * std::log(u) * 1000.0;  // ns
  };
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(std::max(cfg.count, 0)));
  double t = 0;
  if (!cfg.bursty) {
    for (int i = 0; i < cfg.count; ++i) {
      t += expo(cfg.mean_interarrival_us);
      out.push_back(static_cast<std::uint64_t>(t));
    }
    return out;
  }
  // Duty cycle = on_fraction, and during ON the mean inter-arrival shrinks
  // by the same factor, so the long-run rate matches the Poisson schedule.
  const double on_mean = cfg.mean_interarrival_us * cfg.on_fraction;
  const double on_phase = cfg.phase_mean_us * cfg.on_fraction;
  const double off_phase = cfg.phase_mean_us * (1.0 - cfg.on_fraction);
  bool on = true;
  double phase_end = expo(on_phase);
  while (static_cast<int>(out.size()) < cfg.count) {
    if (!on) {
      t = phase_end;
      on = true;
      phase_end = t + expo(on_phase);
      continue;
    }
    const double next = t + expo(on_mean);
    if (next >= phase_end) {
      t = phase_end;
      on = false;
      phase_end = t + expo(off_phase);
      continue;
    }
    t = next;
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

/// Open-loop accounting: offered = every scheduled arrival; issued ops either
/// complete ok, complete with an error, or are REJECTED by admission control;
/// arrivals a hopelessly-behind client never issues are counted `late`
/// (shed = rejected + late).
struct OpenLoopCounts {
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;
  std::uint64_t late = 0;
  void merge(const OpenLoopCounts& o) {
    offered += o.offered;
    ok += o.ok;
    errors += o.errors;
    rejected += o.rejected;
    late += o.late;
  }
};

/// Issue verdict for one open-loop op, reported by the bench's issue
/// callback.
enum class OpenLoopVerdict { kOk, kError, kRejected };

/// Drive one client fiber's open-loop schedule. Must run inside a sim fiber.
/// `issue` performs one blocking op and returns its verdict; `record(dt)`
/// receives the scheduled-arrival-to-completion sim::Time of each ok op
/// (convert with sim::to_ns/to_us for reporting). Arrivals more than
/// `shed_after` in the past when the client gets to them are shed as late
/// (the client is beyond saving; issuing them anyway would just deepen the
/// collapse and stall the measured window). Arrival offsets are in
/// simulated ns (as produced by make_arrivals).
template <typename Issue, typename Record>
inline OpenLoopCounts run_open_loop(sim::Simulator& sim, sim::Time start,
                                    const std::vector<std::uint64_t>& arrivals,
                                    sim::Time shed_after, Issue&& issue,
                                    Record&& record) {
  OpenLoopCounts c;
  for (const std::uint64_t a : arrivals) {
    ++c.offered;
    const sim::Time sched = start + sim::ns(static_cast<std::int64_t>(a));
    const sim::Time now = sim.now();
    if (now < sched) {
      sim::Process::current()->delay(sched - now);
    } else if (now - sched > shed_after) {
      ++c.late;
      continue;
    }
    switch (issue()) {
      case OpenLoopVerdict::kOk:
        ++c.ok;
        record(sim.now() - sched);
        break;
      case OpenLoopVerdict::kError:
        ++c.errors;
        break;
      case OpenLoopVerdict::kRejected:
        ++c.rejected;
        break;
    }
  }
  return c;
}

}  // namespace multiedge::bench
