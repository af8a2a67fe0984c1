// MultiEdge benchmark: one workload per invocation, measured end to end and
// by layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// A run repeats one seeded workload (fresh cluster each time) until
// --seconds of wall time have passed. Every repeat of a seed must produce
// bit-identical modelled results and deterministic counts; a repeat that
// differs, or any wrong output, makes the run exit non-zero.
//
// Two kinds of end-to-end metric come out of a run:
//  * modelled, in simulated time (op latency, throughput, goodput), taken
//    from the first repeat — every repeat reproduces it exactly;
//  * host, measuring this process: set-up wall time as the median over the
//    repeats, CPU time per op as the lowest repeat (interference from other
//    load only ever adds CPU time), and peak RSS.
// With --trace 1 the repeats alternate traced / untraced; the traced ones
// record spans around every call the benchmark makes into a layer and supply
// the per-layer metrics, and the CPU cost difference is trace.overhead_frac.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics of the selected kind. See README.md for every definition.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "coll/coll.hpp"
#include "core/api.hpp"
#include "kv/kv.hpp"
#include "member/member.hpp"
#include "stats.hpp"

namespace {

using namespace multiedge;
using perfbench::OpTally;

// ---------------------------------------------------------------------------
// Host measurement
// ---------------------------------------------------------------------------

double secs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One host-side snapshot of this process.
struct HostMark {
  std::int64_t wall_ns = 0;
  double cpu_s = 0;   // CLOCK_PROCESS_CPUTIME_ID (user + sys)
  double user_s = 0;  // getrusage split of the same
  double sys_s = 0;
  long minflt = 0;

  static HostMark now() {
    HostMark m;
    m.wall_ns = steady_ns();
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    m.cpu_s = static_cast<double>(ts.tv_sec) +
              static_cast<double>(ts.tv_nsec) * 1e-9;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m.user_s = secs(ru.ru_utime);
    m.sys_s = secs(ru.ru_stime);
    m.minflt = ru.ru_minflt;
    return m;
  }
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Spans: recorded from the benchmark's side of every call into a layer
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  int node = -1;
  int parent = -1;  // index into the log, -1 = root
  sim::Time sim_start = 0;
  sim::Time sim_end = 0;
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
};

/// In-memory span log of one repeat; written out once the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int begin(const char* name, int node, int parent, sim::Time now) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.node = node;
    s.parent = parent;
    s.sim_start = now;
    s.host_start_ns = steady_ns();
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id, sim::Time now) {
    if (id < 0) return;
    spans_[id].sim_end = now;
    spans_[id].host_end_ns = steady_ns();
  }

  /// Simulated durations (us) of every span called `name`.
  std::vector<double> sim_us(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(sim::to_us(s.sim_end - s.sim_start));
      }
    }
    return out;
  }

  void write_json(std::ostream& os) const {
    const std::int64_t h0 = spans_.empty() ? 0 : spans_.front().host_start_ns;
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"node\": " << s.node << ", \"parent\": " << s.parent
         << ", \"sim_start_ps\": " << s.sim_start
         << ", \"sim_end_ps\": " << s.sim_end
         << ", \"host_start_ns\": " << s.host_start_ns - h0
         << ", \"host_end_ns\": " << s.host_end_ns - h0 << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span around one call (no-op when the log is off).
class SpanScope {
 public:
  SpanScope(SpanLog& log, sim::Simulator& sim, const char* name, int node,
            int parent = -1)
      : log_(log), sim_(sim), id_(log.begin(name, node, parent, sim.now())) {}
  ~SpanScope() { log_.end(id_, sim_.now()); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  sim::Simulator& sim_;
  int id_;
};

// ---------------------------------------------------------------------------
// One repeat: context, result, and the window meter
// ---------------------------------------------------------------------------

struct RunCtx {
  std::uint64_t seed = 1;
  SpanLog spans{false};
};

struct Result {
  OpTally tally;
  std::vector<double> lat_us;  // one sample per ok op, simulated us
  double window_ms = 0;        // measured window, simulated
  double payload_bytes = 0;    // useful payload of the ok ops
  // host
  double setup_s = 0;
  long setup_minflt = 0;
  double cpu_s = 0, user_s = 0, sys_s = 0;
  // deterministic counts
  std::uint64_t events = 0;       // simulator events in the window
  std::uint64_t wire_frames = 0;  // frames onto node uplinks in the window
  std::uint64_t fingerprint = 0;  // bench::counters_fingerprint, whole run
  // per-layer values derived from simulated state
  std::map<std::string, double> layer;
  std::vector<std::string> errors;  // wrong outputs and broken invariants
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

struct NetSnap {
  std::vector<std::uint64_t> rail_bytes;  // uplink wire bytes per rail
  std::uint64_t frames = 0;
  std::uint64_t tail_drops = 0;
  std::uint64_t rx_ring_drops = 0;
};

NetSnap net_snap(Cluster& c) {
  net::Network& net = c.network();
  NetSnap s;
  s.rail_bytes.assign(static_cast<std::size_t>(net.rails()), 0);
  for (int r = 0; r < net.rails(); ++r) {
    s.tail_drops += net.rail_switch(r).stats().tail_drops;
    for (int n = 0; n < c.num_nodes(); ++n) {
      const net::Channel::Stats& up = net.uplink(n, r).stats();
      s.rail_bytes[r] += up.bytes_sent;
      s.frames += up.frames_sent;
      s.rx_ring_drops += net.nic(n, r).stats().rx_ring_drops;
    }
  }
  return s;
}

stats::Counters engine_counters(Cluster& c) {
  stats::Counters all;
  bench::merge_engine_counters(c, c.num_nodes(), all);
  return all;
}

/// Brackets the measured window. Construct it before the cluster (set-up
/// starts there); call window_start() when the first measured op is about
/// to be issued and window_end() once the last one finished, both from
/// inside the simulation. `layer_counters` snapshots the layer-owned
/// counters (kv servers, membership, broker) at both edges.
class Meter {
 public:
  using CounterFn = std::function<stats::Counters()>;

  Meter() : setup0_(HostMark::now()) {}

  void set_layer_counters(CounterFn fn) { layer_fn_ = std::move(fn); }
  bool started() const { return started_; }
  bool ended() const { return ended_; }

  void window_start(Cluster& c) {
    started_ = true;
    c.reset_cpu_windows();
    t0_ = c.sim().now();
    ev0_ = c.sim().events_executed();
    proto0_ = engine_counters(c);
    net0_ = net_snap(c);
    if (layer_fn_) layer0_ = layer_fn_();
    host0_ = HostMark::now();
  }

  void window_end(Cluster& c) {
    host1_ = HostMark::now();
    ended_ = true;
    t1_ = c.sim().now();
    ev1_ = c.sim().events_executed();
    proto1_ = engine_counters(c);
    net1_ = net_snap(c);
    if (layer_fn_) layer1_ = layer_fn_();
    app_busy_ = proto_busy_ = 0;
    for (int n = 0; n < c.num_nodes(); ++n) {
      app_busy_ = std::max(app_busy_, c.app_cpu(n).utilization());
      proto_busy_ = std::max(proto_busy_, c.proto_cpu(n).utilization());
    }
  }

  /// Layer counters accumulated over the window.
  stats::Counters layer_diff() const { return layer1_.diff(layer0_); }
  sim::Time t0() const { return t0_; }

  /// Fill the window-derived parts of `r` (call after Cluster::run, with
  /// r.tally and r.payload_bytes final).
  void finish(Cluster& c, Result& r) const {
    if (!started_ || !ended_) {
      r.errors.push_back("measured window never opened or closed");
      return;
    }
    r.window_ms = sim::to_ms(t1_ - t0_);
    r.setup_s = static_cast<double>(host0_.wall_ns - setup0_.wall_ns) * 1e-9;
    r.setup_minflt = host0_.minflt - setup0_.minflt;
    r.cpu_s = host1_.cpu_s - host0_.cpu_s;
    r.user_s = host1_.user_s - host0_.user_s;
    r.sys_s = host1_.sys_s - host0_.sys_s;
    r.events = ev1_ - ev0_;
    r.wire_frames = net1_.frames - net0_.frames;

    stats::Counters all = engine_counters(c);
    if (layer_fn_) all.merge(layer_fn_());
    r.fingerprint = bench::counters_fingerprint(all);

    const stats::Counters p = proto1_.diff(proto0_);
    const double ops = static_cast<double>(r.tally.ok);
    const double data_tx = static_cast<double>(p.get("data_frames_sent"));
    const double ack_tx = static_cast<double>(p.get("ack_frames_sent"));
    const double data_rx = static_cast<double>(p.get("data_frames_rcvd"));
    const double ack_rx = static_cast<double>(p.get("ack_frames_rcvd"));
    auto& L = r.layer;
    L["sim.events_per_op"] = ratio(static_cast<double>(r.events), ops);
    L["sim.app_cpu_busy"] = app_busy_;
    L["sim.proto_cpu_busy"] = proto_busy_;
    L["proto.frames_per_op"] = ratio(data_tx + ack_tx, ops);
    L["proto.ack_frames_per_data_frame"] = ratio(ack_tx, data_tx);
    L["proto.ooo_frac"] =
        ratio(static_cast<double>(p.get("ooo_frames_rcvd")), data_rx);
    L["proto.window_stalls_per_op"] =
        ratio(static_cast<double>(p.get("window_stalls")), ops);
    L["proto.retransmissions"] = static_cast<double>(p.get("retransmissions"));
    L["proto.interrupts_per_frame"] =
        ratio(static_cast<double>(p.get("interrupts")), data_rx + ack_rx);
    L["proto.thread_wakeups_per_op"] =
        ratio(static_cast<double>(p.get("thread_wakeups")), ops);
    L["rma.notifies_per_op"] =
        ratio(static_cast<double>(p.get("notifications_delivered")), ops);

    double wire = 0, lo = 0, hi = 0;
    for (std::size_t i = 0; i < net1_.rail_bytes.size(); ++i) {
      const auto b =
          static_cast<double>(net1_.rail_bytes[i] - net0_.rail_bytes[i]);
      wire += b;
      lo = i == 0 ? b : std::min(lo, b);
      hi = std::max(hi, b);
    }
    L["net.wire_bytes_per_payload_byte"] = ratio(wire, r.payload_bytes);
    L["net.rail_imbalance"] = ratio(hi, lo);
    L["net.switch_tail_drops"] =
        static_cast<double>(net1_.tail_drops - net0_.tail_drops);
    L["net.nic_rx_ring_drops"] =
        static_cast<double>(net1_.rx_ring_drops - net0_.rx_ring_drops);
  }

 private:
  HostMark setup0_, host0_, host1_;
  bool started_ = false, ended_ = false;
  sim::Time t0_ = 0, t1_ = 0;
  std::uint64_t ev0_ = 0, ev1_ = 0;
  stats::Counters proto0_, proto1_, layer0_, layer1_;
  NetSnap net0_, net1_;
  double app_busy_ = 0, proto_busy_ = 0;
  CounterFn layer_fn_;
};

std::uint64_t stream_of(std::uint64_t seed, std::uint64_t a,
                        std::uint64_t b = 0) {
  return kv::mix64(seed ^ kv::mix64(a * 0x9e3779b97f4a7c15ull + b));
}

double quantile_of(const std::vector<double>& v, double q) {
  return perfbench::quantile(v, q).value;
}

/// Membership must stay quiet in a fault-free run: no suspicion, no
/// down-mark on any node.
void check_membership(member::Service& svc, int nodes, Result& r) {
  const stats::Counters m = svc.aggregate_counters();
  if (m.get("member_suspects") || m.get("member_dead_marks")) {
    r.errors.push_back("membership raised " +
                       std::to_string(m.get("member_suspects")) +
                       " suspicions and " +
                       std::to_string(m.get("member_dead_marks")) +
                       " down-marks in a fault-free run");
  }
  for (int n = 0; n < nodes; ++n) {
    if (svc.view(n).num_down() != 0) {
      r.errors.push_back("node " + std::to_string(n) + " marked peers down");
    }
  }
  r.layer["member.suspects"] = static_cast<double>(m.get("member_suspects"));
}

// ---------------------------------------------------------------------------
// stream-2L: bidirectional rdma_write stream, the paper's Fig 2 path
// ---------------------------------------------------------------------------

constexpr int kStreamOps = 8000;   // per direction
constexpr int kStreamInflight = 8;  // per direction
constexpr int kStreamSlots = 16;    // > in-flight: a slot is reused only
                                    // after the op that last used it retired
constexpr std::uint32_t kStreamSlotBytes = 64 * 1024;
constexpr std::uint32_t kStreamSizes[] = {64, 4096, 64 * 1024};

/// Deterministic per-op source pattern: every byte depends on the op.
void fill_pattern(std::byte* p, std::uint32_t len, std::uint64_t key) {
  std::uint64_t w = kv::mix64(key);
  for (std::uint32_t i = 0; i < len; i += 8) {
    const std::uint32_t n = std::min<std::uint32_t>(8, len - i);
    std::memcpy(p + i, &w, n);
    w += 0x9e3779b97f4a7c15ull;
  }
}

Result run_stream(RunCtx& ctx) {
  Result r;
  SpanLog& spans = ctx.spans;
  Meter meter;
  const int root = spans.begin("setup", -1, -1, 0);
  std::unique_ptr<Cluster> cp;
  {
    const int s = spans.begin("setup.cluster", -1, root, 0);
    cp = std::make_unique<Cluster>(config_2l_1g(2));
    spans.end(s, 0);
  }
  Cluster& cluster = *cp;
  sim::Simulator& sim = cluster.sim();

  // Symmetric layout: same VAs on both nodes.
  std::uint64_t src = 0, dst = 0;
  for (int n = 0; n < 2; ++n) {
    src = cluster.memory(n).alloc(std::size_t{kStreamSlots} * kStreamSlotBytes);
    dst = cluster.memory(n).alloc(std::size_t{kStreamSlots} * kStreamSlotBytes);
  }
  // Seeded per-op size mix, one stream per direction.
  std::vector<std::uint32_t> sizes[2];
  for (int n = 0; n < 2; ++n) {
    std::mt19937_64 rng(stream_of(ctx.seed, 0x57e4, n));
    for (int i = 0; i < kStreamOps; ++i) {
      sizes[n].push_back(kStreamSizes[rng() % 3]);
    }
  }

  kv::HostBarrier ready, done;
  std::vector<double> complete_us;
  for (int n = 0; n < 2; ++n) {
    cluster.spawn(n, "stream" + std::to_string(n), [&, n](Endpoint& ep) {
      const int peer = 1 - n;
      Connection conn = n == 0 ? ep.connect(1) : ep.accept(0);
      ready.arrive_and_wait(2);
      if (!meter.started()) {
        spans.end(root, sim.now());
        meter.window_start(cluster);
      }
      const int client = spans.begin("stream.client", n, -1, sim.now());
      std::vector<OpHandle> h(kStreamOps);
      std::vector<sim::Time> issued(kStreamOps), returned(kStreamOps),
          completed(kStreamOps, -1);
      std::deque<int> inflight;
      auto slot = [](int i) {
        return std::uint64_t{static_cast<std::uint32_t>(i % kStreamSlots)} *
               kStreamSlotBytes;
      };
      auto retire = [&](int i) {
        {
          SpanScope s(spans, sim, "core.wait", n, client);
          h[i].wait();
        }
        const std::uint64_t off = slot(i);
        const auto want = cluster.memory(n).view(src + off, sizes[n][i]);
        const auto got = cluster.memory(peer).view(dst + off, sizes[n][i]);
        if (completed[i] < 0 ||
            std::memcmp(want.data(), got.data(), want.size()) != 0) {
          r.tally.fail();
          r.errors.push_back("stream: node " + std::to_string(peer) +
                             " destination differs from op " +
                             std::to_string(i) + "'s source");
          return;
        }
        r.tally.pass();
        r.payload_bytes += sizes[n][i];
        r.lat_us.push_back(sim::to_us(completed[i] - issued[i]));
        complete_us.push_back(sim::to_us(completed[i] - returned[i]));
      };
      for (int i = 0; i < kStreamOps; ++i) {
        if (static_cast<int>(inflight.size()) == kStreamInflight) {
          retire(inflight.front());
          inflight.pop_front();
        }
        const std::uint64_t off = slot(i);
        fill_pattern(cluster.memory(n).view_mut(src + off, sizes[n][i]).data(),
                     sizes[n][i], stream_of(ctx.seed, 0xda7a + n, i));
        issued[i] = sim.now();
        {
          SpanScope s(spans, sim, "core.rdma_write", n, client);
          h[i] = conn.rdma_write(dst + off, src + off, sizes[n][i]);
        }
        returned[i] = sim.now();
        h[i].on_complete([&completed, &sim, i] { completed[i] = sim.now(); });
        inflight.push_back(i);
      }
      while (!inflight.empty()) {
        retire(inflight.front());
        inflight.pop_front();
      }
      spans.end(client, sim.now());
      done.arrive_and_wait(2);
      if (!meter.ended()) meter.window_end(cluster);
    });
  }
  cluster.run();
  meter.finish(cluster, r);
  r.layer["core.complete_us_p50"] = quantile_of(complete_us, 0.5);
  r.layer["core.complete_us_p99"] = quantile_of(complete_us, 0.99);
  return r;
}

// ---------------------------------------------------------------------------
// KV workloads: self-validating values against a reference of writes
// ---------------------------------------------------------------------------

struct KvSpec {
  bool zipf = true;
  double get_frac = 0.95;
  std::uint32_t value_bytes = 4096;
  kv::ConnMode conn_mode = kv::ConnMode::kShared;
  int ops_per_client = 0;
  // Open loop (rate_kops > 0): Poisson arrivals per client at
  // rate_kops / clients, latency from the scheduled arrival.
  double rate_kops = 0;
};

constexpr int kKvNodes = 4;
constexpr int kKvClientsPerNode = 8;
constexpr int kKvKeys = 1024;
constexpr double kZipfTheta = 0.99;

// Value layout: key u32 | writer u32 | seq u64 | checksum u64 | filler.
// The checksum covers every other byte, so a torn, stale-layout or
// misrouted value cannot validate.
constexpr std::uint32_t kValHeader = 24;

std::uint64_t value_checksum(const char* v, std::size_t len) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    if (i >= 16 && i < 24) continue;
    h ^= static_cast<unsigned char>(v[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::string encode_value(std::uint32_t len, std::uint32_t key,
                         std::uint32_t writer, std::uint64_t seq) {
  std::string v(len, '\0');
  std::memcpy(v.data(), &key, 4);
  std::memcpy(v.data() + 4, &writer, 4);
  std::memcpy(v.data() + 8, &seq, 8);
  std::uint64_t w = kv::mix64((std::uint64_t{writer} << 40) ^ seq);
  for (std::uint32_t i = kValHeader; i < len; ++i) {
    v[i] = static_cast<char>((w >> ((i & 7) * 8)) & 0xff);
    if ((i & 7) == 7) w = kv::mix64(w);
  }
  const std::uint64_t c = value_checksum(v.data(), len);
  std::memcpy(v.data() + 16, &c, 8);
  return v;
}

struct WriteRec {
  std::uint32_t writer = 0;
  std::uint64_t seq = 0;
  sim::Time issued = 0;
  sim::Time acked = sim::kTimeInfinity;  // not acknowledged (yet)
};

/// Every write issued to each key, in issue order.
class WriteLog {
 public:
  explicit WriteLog(int keys) : by_key_(static_cast<std::size_t>(keys)) {}

  std::size_t issue(int key, std::uint32_t writer, std::uint64_t seq,
                    sim::Time t) {
    by_key_[key].push_back({writer, seq, t, sim::kTimeInfinity});
    return by_key_[key].size() - 1;
  }
  void ack(int key, std::size_t idx, sim::Time t) { by_key_[key][idx].acked = t; }

  /// Why a value read for `key` over [start, end] is wrong, or "" if it
  /// is acceptable: it must decode, name this key, be a write issued
  /// before the read ended, and not be superseded by a write that was
  /// acknowledged before the read began.
  std::string check_read(int key, const std::string& v, std::uint32_t len,
                         sim::Time start, sim::Time end) const {
    if (v.size() != len) return "value length " + std::to_string(v.size());
    std::uint32_t k = 0, writer = 0;
    std::uint64_t seq = 0, sum = 0;
    std::memcpy(&k, v.data(), 4);
    std::memcpy(&writer, v.data() + 4, 4);
    std::memcpy(&seq, v.data() + 8, 8);
    std::memcpy(&sum, v.data() + 16, 8);
    if (sum != value_checksum(v.data(), len)) return "checksum mismatch";
    if (static_cast<int>(k) != key) return "value of key " + std::to_string(k);
    const WriteRec* w = nullptr;
    for (const WriteRec& c : by_key_[key]) {
      if (c.writer == writer && c.seq == seq) w = &c;
    }
    if (w == nullptr || w->issued > end) return "value never written";
    for (const WriteRec& c : by_key_[key]) {
      if (c.acked < start && w->acked != sim::kTimeInfinity &&
          c.issued > w->acked) {
        return "stale value (superseded before the read began)";
      }
    }
    return "";
  }

 private:
  std::vector<std::vector<WriteRec>> by_key_;
};

Result run_kv(RunCtx& ctx, const KvSpec& spec) {
  Result r;
  SpanLog& spans = ctx.spans;
  Meter meter;
  const int root = spans.begin("setup", -1, -1, 0);

  ClusterConfig ccfg = config_2l_1g(kKvNodes);
  ccfg.memory_bytes_per_node = std::size_t{128} << 20;  // 4 KiB values
  std::unique_ptr<Cluster> cp;
  {
    const int s = spans.begin("setup.cluster", -1, root, 0);
    cp = std::make_unique<Cluster>(ccfg);
    spans.end(s, 0);
  }
  Cluster& cluster = *cp;
  sim::Simulator& sim = cluster.sim();

  kv::KvConfig kc;
  kc.clients_per_node = kKvClientsPerNode;
  kc.max_value_bytes = spec.value_bytes;
  kc.replication = 2;
  kc.conn_mode = spec.conn_mode;
  // As in kv_bench: under load, queueing dwarfs the unloaded RTT, so
  // generous timeouts keep spurious retries out of the measurement.
  kc.rpc_timeout = sim::ms(5);
  kc.get_timeout = sim::ms(5);
  std::unique_ptr<kv::System> sysp;
  {
    const int s = spans.begin("setup.kv_system", -1, root, 0);
    sysp = std::make_unique<kv::System>(cluster, kc);
    spans.end(s, 0);
  }
  kv::System& sys = *sysp;
  meter.set_layer_counters([&] {
    stats::Counters c = sys.membership().aggregate_counters();
    for (int n = 0; n < kKvNodes; ++n) c.merge(sys.server(n).counters());
    if (sys.broker()) c.merge(sys.broker()->aggregate_counters());
    return c;
  });

  const int total = kKvNodes * kKvClientsPerNode;
  const bench::ZipfGen zipf(kKvKeys, kZipfTheta);
  WriteLog writes(kKvKeys);
  // Open loop: one Poisson arrival process for the whole cluster, dealt
  // round-robin to the clients, so every client's schedule spans the same
  // horizon and the window is not set by the slowest per-client stream.
  std::vector<std::uint64_t> arrivals;
  if (spec.rate_kops > 0) {
    bench::ArrivalConfig ac;
    ac.mean_interarrival_us = 1000.0 / spec.rate_kops;
    ac.count = spec.ops_per_client * total;
    ac.seed = stream_of(ctx.seed, 0xa771);
    arrivals = bench::make_arrivals(ac);
  }
  kv::HostBarrier loaded, done;
  stats::Counters client_window;  // client counters over the window
  std::uint64_t gets = 0, puts = 0;

  for (int node = 0; node < kKvNodes; ++node) {
    for (int c = 0; c < kKvClientsPerNode; ++c) {
      const int id = node * kKvClientsPerNode + c;
      sys.spawn_client(
          node, "client" + std::to_string(id), [&, id, node](kv::Client& cl) {
        const auto writer = static_cast<std::uint32_t>(id);
        std::uint64_t seq = 0;
        std::string got;
        auto put = [&](const char* name, int key, int parent) {
          const std::string v =
              encode_value(spec.value_bytes, static_cast<std::uint32_t>(key),
                           writer, ++seq);
          const std::size_t w = writes.issue(key, writer, seq, sim.now());
          SpanScope s(spans, sim, name, node, parent);
          const kv::Status st = cl.put(bench::bench_key(key), v);
          if (st == kv::Status::kOk) writes.ack(key, w, sim.now());
          return st;
        };
        auto get = [&](const char* name, int key, int parent,
                       std::string* why) {
          const sim::Time t0 = sim.now();
          kv::Status st;
          {
            SpanScope s(spans, sim, name, node, parent);
            st = cl.get(bench::bench_key(key), &got);
          }
          if (st == kv::Status::kOk) {
            *why = writes.check_read(key, got, spec.value_bytes, t0, sim.now());
          } else {
            *why = std::string("status ") + kv::status_str(st);
          }
          return st;
        };

        const int pre = spans.begin("kv.preload", node, root, sim.now());
        for (int k = id; k < kKvKeys; k += total) {
          if (put("kv.preload_put", k, pre) != kv::Status::kOk) {
            r.errors.push_back("preload PUT failed");
          }
        }
        spans.end(pre, sim.now());
        loaded.arrive_and_wait(total);
        if (!meter.started()) {
          spans.end(root, sim.now());
          meter.window_start(cluster);
        }
        const stats::Counters c0 = cl.counters();
        const int span = spans.begin("kv.client", node, -1, sim.now());

        std::mt19937_64 rng(stream_of(ctx.seed, 0xc11e, id));
        std::uniform_real_distribution<double> u01(0.0, 1.0);
        // One op: returns ok, a KV error, or a wrong output.
        auto one_op = [&]() -> bench::OpenLoopVerdict {
          const double u = u01(rng);
          const int key = static_cast<int>(
              spec.zipf ? zipf.next(u)
                        : static_cast<std::uint64_t>(u * kKvKeys) % kKvKeys);
          std::string why;
          kv::Status st;
          if (u01(rng) < spec.get_frac) {
            ++gets;
            st = get("kv.get", key, span, &why);
          } else {
            ++puts;
            st = put("kv.put", key, span);
            if (st != kv::Status::kOk) why = kv::status_str(st);
          }
          if (st == kv::Status::kRejected) return bench::OpenLoopVerdict::kRejected;
          if (!why.empty()) {
            r.errors.push_back("key " + std::to_string(key) + ": " + why);
            return bench::OpenLoopVerdict::kError;
          }
          r.payload_bytes += spec.value_bytes;
          return bench::OpenLoopVerdict::kOk;
        };

        if (spec.rate_kops > 0) {
          std::vector<std::uint64_t> mine;
          for (std::size_t i = id; i < arrivals.size(); i += total) {
            mine.push_back(arrivals[i]);
          }
          const bench::OpenLoopCounts oc = bench::run_open_loop(
              sim, meter.t0(), mine,
              /*shed_after=*/sim::ms(2), one_op, [&](sim::Time dt) {
                r.lat_us.push_back(sim::to_us(dt));
              });
          r.tally.attempted += oc.offered;
          r.tally.ok += oc.ok;
          r.tally.failed += oc.errors + oc.rejected + oc.late;
        } else {
          for (int i = 0; i < spec.ops_per_client; ++i) {
            const sim::Time t0 = sim.now();
            if (one_op() == bench::OpenLoopVerdict::kOk) {
              r.tally.pass();
              r.lat_us.push_back(sim::to_us(sim.now() - t0));
            } else {
              r.tally.fail();
            }
          }
        }
        spans.end(span, sim.now());
        client_window.merge(cl.counters().diff(c0));
        done.arrive_and_wait(total);
        if (!meter.ended()) meter.window_end(cluster);

        // Read-back: every key must hold a write that nothing acknowledged
        // later superseded. A lost write turns one ok op into a failure.
        for (int k = id; k < kKvKeys; k += total) {
          std::string why;
          get("kv.readback_get", k, -1, &why);
          if (!why.empty()) {
            r.tally.demote();
            r.errors.push_back("read-back key " + std::to_string(k) + ": " +
                               why);
          }
        }
      });
    }
  }
  cluster.run();
  meter.finish(cluster, r);
  check_membership(sys.membership(), kKvNodes, r);
  if (client_window.get("kv_rejected")) {
    r.errors.push_back("broker rejected ops below saturation");
  }

  stats::Counters w = meter.layer_diff();
  w.merge(client_window);
  const auto g = static_cast<double>(gets);
  const auto p = static_cast<double>(puts);
  const double ops = static_cast<double>(r.tally.ok);
  auto& L = r.layer;
  L["kv.get_retries_per_get"] =
      ratio(static_cast<double>(w.get("kv_get_retries")), g);
  L["kv.rpc_retries"] = static_cast<double>(w.get("kv_rpc_retries"));
  L["kv.rpc_timeouts"] = static_cast<double>(w.get("kv_rpc_timeouts"));
  L["kv.repl_per_put"] = ratio(static_cast<double>(w.get("kv_repl_sent")), p);
  const double rejected =
      static_cast<double>(w.get("svc_rejected_peer_queue") +
                          w.get("svc_rejected_tenant_queue"));
  L["svc.rejected_frac"] =
      ratio(rejected, static_cast<double>(w.get("svc_ops_submitted")));
  L["svc.queued_frac"] = ratio(
      static_cast<double>(w.get("svc_dispatched_queued")),
      static_cast<double>(w.get("svc_dispatched_inline") +
                          w.get("svc_dispatched_queued")));
  L["svc.credit_stalls_per_op"] =
      ratio(static_cast<double>(w.get("svc_credit_stalls")), ops);
  L["member.msgs_per_node_ms"] =
      ratio(static_cast<double>(w.get("member_msgs_sent")),
            kKvNodes * r.window_ms);
  return r;
}

// ---------------------------------------------------------------------------
// coll-16: barrier + ring all_reduce on 16 ranks, membership attached
// ---------------------------------------------------------------------------

constexpr int kCollNodes = 16;
constexpr int kCollIters = 96;
// Seeded per-rank compute before each iteration, so ranks reach the barrier
// skewed as in a real bulk-synchronous step.
constexpr std::int64_t kCollSkewMaxNs = 50000;
constexpr std::uint32_t kCollElems = 64 * 1024 / 8;  // 64 KiB of f64

/// Rank r contributes (r + 1) * term; terms are small integers, so every
/// partial sum is exact in f64 and the result must equal
/// n(n+1)/2 * term bit for bit.
double coll_term(std::uint64_t seed, int iter, std::uint32_t e) {
  return static_cast<double>(stream_of(seed, 0xc011 + iter, e) % 1024);
}

Result run_coll(RunCtx& ctx) {
  Result r;
  SpanLog& spans = ctx.spans;
  Meter meter;
  const int root = spans.begin("setup", -1, -1, 0);
  std::unique_ptr<Cluster> cp;
  {
    const int s = spans.begin("setup.cluster", -1, root, 0);
    cp = std::make_unique<Cluster>(config_2l_1g(kCollNodes));
    spans.end(s, 0);
  }
  Cluster& cluster = *cp;
  sim::Simulator& sim = cluster.sim();
  std::unique_ptr<member::Service> svcp;
  {
    const int s = spans.begin("setup.member_service", -1, root, 0);
    svcp = std::make_unique<member::Service>(cluster);
    spans.end(s, 0);
  }
  member::Service& svc = *svcp;
  coll::CollConfig cc;
  cc.max_data_bytes = std::size_t{kCollElems} * 8;
  std::unique_ptr<coll::CollDomain> domp;
  {
    const int s = spans.begin("setup.coll_domain", -1, root, 0);
    domp = std::make_unique<coll::CollDomain>(cluster, cc);
    spans.end(s, 0);
  }
  coll::CollDomain& dom = *domp;
  stats::Counters coll_counters;
  meter.set_layer_counters([&] { return svc.aggregate_counters(); });

  const double ranks_sum = kCollNodes * (kCollNodes + 1) / 2.0;
  int finished = 0;
  for (int rank = 0; rank < kCollNodes; ++rank) {
    cluster.spawn(rank, "rank" + std::to_string(rank), [&, rank](Endpoint& ep) {
      coll::Communicator comm(dom, ep);
      comm.set_membership(&svc.view(rank));
      const std::uint64_t buf = ep.alloc(std::size_t{kCollElems} * 8);
      double* v = ep.memory().as<double>(buf);
      try {
        comm.barrier();  // connects the ring and dissemination peers
        if (!meter.started()) {
          spans.end(root, sim.now());
          meter.window_start(cluster);
        }
        for (int it = 0; it < kCollIters; ++it) {
          ep.compute(sim::ns(static_cast<std::int64_t>(
              stream_of(ctx.seed, 0x5ce9 + rank, it) % kCollSkewMaxNs)));
          const sim::Time t0 = sim.now();
          const int op = spans.begin("coll.iter", rank, -1, t0);
          {
            SpanScope s(spans, sim, "coll.barrier", rank, op);
            comm.barrier();
          }
          for (std::uint32_t e = 0; e < kCollElems; ++e) {
            v[e] = (rank + 1) * coll_term(ctx.seed, it, e);
          }
          {
            SpanScope s(spans, sim, "coll.all_reduce", rank, op);
            comm.all_reduce(buf, kCollElems, coll::DType::kF64,
                            coll::ReduceOp::kSum);
          }
          spans.end(op, sim.now());
          std::uint32_t bad = 0;
          for (std::uint32_t e = 0; e < kCollElems; ++e) {
            bad += v[e] != ranks_sum * coll_term(ctx.seed, it, e);
          }
          if (bad) {
            r.tally.fail();
            r.errors.push_back("rank " + std::to_string(rank) + " iter " +
                               std::to_string(it) + ": " +
                               std::to_string(bad) + " wrong sums");
            continue;
          }
          r.tally.pass();
          r.payload_bytes += kCollElems * 8.0;
          r.lat_us.push_back(sim::to_us(sim.now() - t0));
        }
      } catch (const coll::PeerFailure& f) {
        r.errors.push_back(std::string("rank ") + std::to_string(rank) + ": " +
                           f.what());
      }
      coll_counters.merge(comm.counters());
      if (++finished == kCollNodes) {
        meter.window_end(cluster);
        svc.stop();
      }
    });
  }
  cluster.run();
  meter.finish(cluster, r);
  check_membership(svc, kCollNodes, r);
  if (coll_counters.get("coll_peer_failures")) {
    r.errors.push_back("collectives reported peer failures");
  }
  const stats::Counters w = meter.layer_diff();
  r.layer["member.msgs_per_node_ms"] =
      ratio(static_cast<double>(w.get("member_msgs_sent")),
            kCollNodes * r.window_ms);
  return r;
}

// ---------------------------------------------------------------------------
// Workload table and reporting
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  std::function<Result(RunCtx&)> run;
};

// kv-write-open offers this fixed rate: 0.7x the 4-node closed-loop
// saturation throughput of the same mix (see README.md, "Calibration").
constexpr double kKvWriteRateKops = 69.0;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = {
      {"stream-2L", run_stream},
      {"kv-read-zipf",
       [](RunCtx& c) {
         KvSpec s;
         s.ops_per_client = 450;
         return run_kv(c, s);
       }},
      {"kv-write-open",
       [](RunCtx& c) {
         KvSpec s;
         s.zipf = false;
         s.get_frac = 0.20;
         s.value_bytes = 64;
         s.conn_mode = kv::ConnMode::kBroker;
         s.ops_per_client = 800;
         s.rate_kops = kKvWriteRateKops;
         return run_kv(c, s);
       }},
      {"coll-16", run_coll},
  };
  return ws;
}

// --- reporting -------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  const char* better;
};

// End-to-end metrics (untraced runs). failed_frac is printed beside them but
// travels in the result's "failed"/"attempted" fields, not as a metric.
// host_us_per_op is printed beside them too, but travels as a per-layer
// metric: on a shared host the same code's CPU time per op moves by a third
// for minutes at a time, more than any regression bound can absorb.
constexpr Metric kEndToEnd[] = {
    {"op_p50_us", "us", "lower"},
    {"op_p99_us", "us", "lower"},
    {"throughput_kops", "kops", "higher"},
    {"goodput_gbps", "Gbps", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mib", "MiB", "lower"},
};
constexpr Metric kHostUsPerOp = {"host_us_per_op", "us", "lower"};

// Per-layer metrics (traced runs). A metric a workload does not exercise
// reads 0 there.
constexpr Metric kPerLayer[] = {
    kHostUsPerOp,
    {"sim.events_per_op", "count", "lower"},
    {"sim.host_ns_per_event", "ns", "lower"},
    {"sim.sys_frac", "frac", "lower"},
    {"sim.setup_minflt", "count", "lower"},
    {"sim.app_cpu_busy", "frac", "lower"},
    {"sim.proto_cpu_busy", "frac", "lower"},
    {"core.submit_us", "us", "lower"},
    {"core.complete_us_p50", "us", "lower"},
    {"core.complete_us_p99", "us", "lower"},
    {"proto.frames_per_op", "count", "lower"},
    {"proto.ack_frames_per_data_frame", "ratio", "lower"},
    {"proto.ooo_frac", "frac", "lower"},
    {"proto.window_stalls_per_op", "count", "lower"},
    {"proto.retransmissions", "count", "lower"},
    {"proto.interrupts_per_frame", "ratio", "lower"},
    {"proto.thread_wakeups_per_op", "count", "lower"},
    {"net.wire_bytes_per_payload_byte", "ratio", "lower"},
    {"net.rail_imbalance", "ratio", "lower"},
    {"net.switch_tail_drops", "count", "lower"},
    {"net.nic_rx_ring_drops", "count", "lower"},
    {"kv.get_p50_us", "us", "lower"},
    {"kv.get_p99_us", "us", "lower"},
    {"kv.put_p50_us", "us", "lower"},
    {"kv.put_p99_us", "us", "lower"},
    {"kv.get_retries_per_get", "count", "lower"},
    {"kv.rpc_retries", "count", "lower"},
    {"kv.rpc_timeouts", "count", "lower"},
    {"kv.repl_per_put", "count", "lower"},
    {"svc.rejected_frac", "frac", "lower"},
    {"svc.queued_frac", "frac", "lower"},
    {"svc.credit_stalls_per_op", "count", "lower"},
    {"member.msgs_per_node_ms", "1/ms", "lower"},
    {"member.suspects", "count", "lower"},
    {"coll.barrier_us_p50", "us", "lower"},
    {"coll.barrier_us_p99", "us", "lower"},
    {"coll.allreduce_us_p50", "us", "lower"},
    {"coll.allreduce_us_p99", "us", "lower"},
    {"rma.notifies_per_op", "count", "lower"},
    {"det.sim_events", "count", "lower"},
    {"det.wire_frames", "count", "lower"},
    {"trace.overhead_frac", "frac", "lower"},
};

/// Shortest decimal that reads back as the same double.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Everything a repeat of the same seed must reproduce exactly.
std::string modelled_signature(const Result& r) {
  std::ostringstream os;
  os << r.tally.attempted << ' ' << r.tally.ok << ' ' << r.tally.failed << ' '
     << num(r.window_ms) << ' ' << num(r.payload_bytes) << ' ' << r.events
     << ' ' << r.wire_frames << ' ' << bench::hex(r.fingerprint);
  for (double v : r.lat_us) os << ' ' << num(v);
  return os.str();
}

double host_us_per_op(const Result& r) {
  return ratio(r.cpu_s * 1e6, static_cast<double>(r.tally.ok));
}

std::vector<double> each(const std::vector<Result>& rs,
                         double (*f)(const Result&)) {
  std::vector<double> v;
  for (const Result& r : rs) v.push_back(f(r));
  return v;
}

/// CPU-time figures are taken from the cheapest repeat: every repeat does
/// the same simulated work, and other load on the machine only adds to it.
double lowest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// A repeat that never finishes (a simulated deadlock keeps running on the
// membership timers) must still end the run within its time limit: the
// watchdog gives up with a failed result. Async-signal-safe: write + _exit.
constexpr unsigned kWatchdogSeconds = 150;

void on_watchdog(int) {
  static const char msg[] =
      "ERROR: a repeat did not finish within 150 s (simulation hang)\n"
      "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
      "\"metrics\": {}}\n";
  if (write(STDOUT_FILENO, msg, sizeof msg - 1) < 0) _exit(2);
  _exit(1);
}

/// Per-layer percentiles from the span log of a traced repeat.
void span_metrics(const SpanLog& spans, std::map<std::string, double>& L) {
  auto put = [&](const char* span, const char* p50, const char* p99) {
    const std::vector<double> us = spans.sim_us(span);
    L[p50] = quantile_of(us, 0.5);
    if (p99) L[p99] = quantile_of(us, 0.99);
  };
  put("core.rdma_write", "core.submit_us", nullptr);
  put("kv.get", "kv.get_p50_us", "kv.get_p99_us");
  put("kv.put", "kv.put_p50_us", "kv.put_p99_us");
  put("coll.barrier", "coll.barrier_us_p50", "coll.barrier_us_p99");
  put("coll.all_reduce", "coll.allreduce_us_p50", "coll.allreduce_us_p99");
}

void print_metric(const Metric& m, double v, const std::string& note = "") {
  std::printf("  %-34s %16s %-6s %-6s %s\n", m.name, num(v).c_str(), m.unit,
              m.better, note.c_str());
}

int usage() {
  std::cerr << "usage: perfbench --workload <stream-2L|kv-read-zipf|"
               "kv-write-open|coll-16> --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) return usage();
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(seconds > 0)) return usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      trace = v == "1";
    } else if (k == "--spans-out") {
      spans_out = v;
    } else {
      return usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (workload == w.name) wl = &w;
  }
  if (wl == nullptr || seconds <= 0 || trace < 0) return usage();
  std::signal(SIGALRM, on_watchdog);
  alarm(kWatchdogSeconds);

  // Repeat until --seconds have passed: at least three repeats, or four
  // with tracing, where even repeats are traced and odd ones are not.
  constexpr double kMaxSeconds = 120;  // keeps a run inside its time limit
  const std::int64_t t_begin = steady_ns();
  std::vector<Result> plain, traced;
  std::unique_ptr<RunCtx> traced_ctx;
  std::string signature;
  std::vector<std::string> errors;
  int reps = 0;
  for (;;) {
    auto ctx = std::make_unique<RunCtx>();
    ctx->seed = seed;
    const bool tr = trace == 1 && reps % 2 == 0;
    ctx->spans = SpanLog(tr);
    Result r = wl->run(*ctx);
    const std::string sig = modelled_signature(r);
    if (reps == 0) signature = sig;
    if (sig != signature) {
      errors.push_back("repeat " + std::to_string(reps) +
                       " did not reproduce the modelled results of repeat 0");
    }
    for (const std::string& e : r.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
    if (tr) {
      span_metrics(ctx->spans, r.layer);
      traced_ctx = std::move(ctx);
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
    ++reps;
    const double elapsed = static_cast<double>(steady_ns() - t_begin) * 1e-9;
    if (!errors.empty()) break;
    if (reps >= (trace ? 4 : 3) && elapsed >= seconds) break;
    if (elapsed >= kMaxSeconds && reps >= 2) break;
  }

  const Result& r0 = plain.empty() ? traced.front() : plain.front();
  const perfbench::Quantile p50 = perfbench::quantile(r0.lat_us, 0.5);
  const perfbench::Quantile p99 = perfbench::quantile(r0.lat_us, 0.99);
  if (!perfbench::tail_supported(p99.samples, 0.99)) {
    errors.push_back("p99 rests on " + std::to_string(p99.beyond) +
                     " samples beyond it; at least " +
                     std::to_string(perfbench::kMinTailSamples) + " needed");
  }

  std::map<std::string, double> e2e;
  e2e["op_p50_us"] = p50.value;
  e2e["op_p99_us"] = p99.value;
  e2e["throughput_kops"] = ratio(static_cast<double>(r0.tally.ok), r0.window_ms);
  e2e["goodput_gbps"] = ratio(r0.payload_bytes * 8.0, r0.window_ms * 1e6);
  e2e["setup_s"] =
      perfbench::median(each(plain, [](const Result& r) { return r.setup_s; }));
  e2e["host_us_per_op"] = lowest(each(plain, host_us_per_op));
  e2e["peak_rss_mib"] = peak_rss_mib();

  // Per-layer: simulated values from the first traced repeat (every repeat
  // reproduces them), host-derived ones over the traced repeats (CPU time
  // from the lowest, the rest as medians).
  std::map<std::string, double> layer;
  if (!traced.empty()) {
    layer = traced.front().layer;
    layer["host_us_per_op"] = e2e["host_us_per_op"];
    layer["sim.host_ns_per_event"] = lowest(
        each(traced, [](const Result& r) {
          return ratio(r.cpu_s * 1e9, static_cast<double>(r.events));
        }));
    layer["sim.sys_frac"] = perfbench::median(each(traced, [](const Result& r) {
      return ratio(r.sys_s, r.user_s + r.sys_s);
    }));
    layer["sim.setup_minflt"] = perfbench::median(each(
        traced, [](const Result& r) { return static_cast<double>(r.setup_minflt); }));
    layer["det.sim_events"] = static_cast<double>(r0.events);
    layer["det.wire_frames"] = static_cast<double>(r0.wire_frames);
    layer["trace.overhead_frac"] =
        ratio(lowest(each(traced, host_us_per_op)), e2e["host_us_per_op"]) -
        1.0;
    if (!spans_out.empty()) {
      std::ofstream out(spans_out);
      traced_ctx->spans.write_json(out);
      if (!out) errors.push_back("cannot write spans to " + spans_out);
    }
  }

  const double elapsed = static_cast<double>(steady_ns() - t_begin) * 1e-9;
  std::printf("perfbench %s seed=%llu trace=%d: %d repeats (%zu traced) in "
              "%.1f s\n",
              wl->name, static_cast<unsigned long long>(seed), trace, reps,
              traced.size(), elapsed);
  std::printf("end-to-end (modelled from repeat 0; host over %zu untraced "
              "repeats):\n",
              plain.size());
  for (const Metric& m : kEndToEnd) {
    std::string note;
    if (std::string_view(m.name) == "op_p50_us") {
      note = "n=" + std::to_string(p50.samples);
    } else if (std::string_view(m.name) == "op_p99_us") {
      note = "n=" + std::to_string(p99.samples) + " beyond=" +
             std::to_string(p99.beyond);
    }
    print_metric(m, e2e[m.name], note);
  }
  print_metric(kHostUsPerOp, e2e["host_us_per_op"], "lowest repeat");
  print_metric({"failed_frac", "frac", "lower"}, r0.tally.failed_frac(),
               std::to_string(r0.tally.failed) + "/" +
                   std::to_string(r0.tally.attempted));
  std::printf("deterministic: sim_events=%llu wire_frames=%llu "
              "fingerprint=%s\n",
              static_cast<unsigned long long>(r0.events),
              static_cast<unsigned long long>(r0.wire_frames),
              bench::hex(r0.fingerprint).c_str());
  std::printf("untraced repeats (host_us_per_op user+sys / setup_s):");
  for (const Result& r : plain) {
    const double ok = static_cast<double>(r.tally.ok);
    std::printf(" %.1f=%.1f+%.1f/%.3f", host_us_per_op(r),
                ratio(r.user_s * 1e6, ok), ratio(r.sys_s * 1e6, ok),
                r.setup_s);
  }
  std::printf("\n");
  if (trace) {
    std::printf("per-layer (traced repeats):\n");
    for (const Metric& m : kPerLayer) print_metric(m, layer[m.name]);
  }
  for (const std::string& e : errors) std::printf("ERROR: %s\n", e.c_str());

  const bool correct = errors.empty();
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r0.tally.attempted
     << ", \"failed\": " << r0.tally.failed << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m, double v) {
    js << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << num(v)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (trace) {
    for (const Metric& m : kPerLayer) emit(m, layer[m.name]);
  } else {
    for (const Metric& m : kEndToEnd) emit(m, e2e[m.name]);
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}
