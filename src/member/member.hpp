// SWIM-style gossip membership over the MultiEdge core API.
//
// Replaces the KV layer's all-pairs heartbeat mesh with the scalable
// detector shape from Das et al.'s SWIM: each node probes ONE randomized
// round-robin peer per protocol period (constant per-node probe load instead
// of O(n)), falls back to k indirect ping-reqs through random helpers when
// the direct ping times out, SUSPECTS rather than kills a silent peer, and
// disseminates state changes epidemically by piggybacking a bounded number
// of membership updates on every protocol message (each update is
// retransmitted O(log n) times, so a change reaches all n members in
// O(log n) periods with high probability).
//
// Two MultiEdge-specific twists:
//
//  * Passive liveness. The protocol engine stamps the arrival time of every
//    frame per source node (Engine::last_rx_from). A peer whose data or ack
//    frames arrived within `suppress_window` is provably alive, so its probe
//    is suppressed entirely — on a busy cluster the detector rides the
//    application's own traffic and sends almost no dedicated probes.
//
//  * Refutable suspicion. Suspicion gossip reaching the suspected node makes
//    it bump its incarnation number and gossip Alive(inc+1), which overrides
//    the suspicion everywhere (standard SWIM). Only a suspicion that matures
//    for `suspect_timeout` without refutation becomes Dead — and Dead is
//    sticky for the session, preserving the KV layer's sticky-down +
//    backup-promotion semantics (rejoin/resync stays future work).
//
// Messages are 8-byte-aligned records written into per-(source, slot) inbox
// rings on the receiver (urgent + notify + backward-fenced writes, own
// notification tag), exactly the mailbox idiom the KV RPCs use. A legacy
// `mesh` mode reproduces the old all-pairs heartbeat detector so benches can
// measure SWIM against it on identical plumbing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/api.hpp"
#include "sim/random.hpp"
#include "stats/counters.hpp"
#include "trace/trace.hpp"

namespace multiedge::member {

/// Notification tag for membership traffic (DSM=0, coll=1, kv=8+).
inline constexpr std::uint8_t kMemberTag = 2;

enum class PeerState : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

const char* state_str(PeerState s);

struct MemberConfig {
  /// Protocol period: one probe round (direct ping, then indirect round)
  /// per period per node.
  sim::Time period = sim::us(500);
  /// Deadline for the direct ping's ack.
  sim::Time ping_timeout = sim::us(200);
  /// Deadline for any indirect ack after the ping-req fan-out.
  sim::Time indirect_timeout = sim::us(400);
  /// A matured (unrefuted) suspicion becomes Dead after this long.
  sim::Time suspect_timeout = sim::ms(2);
  /// Helpers asked to probe on our behalf when the direct ping times out.
  int indirect_k = 3;
  /// Max piggybacked membership updates per message.
  int max_updates = 8;
  /// Each update is piggybacked on `retransmit_factor * (ceil_log2(n) + 1)`
  /// outgoing messages before it is dropped from the gossip buffer.
  int retransmit_factor = 3;
  /// A peer whose frames (any protocol traffic) arrived within this window
  /// is implicitly alive; its probe is suppressed. 0 disables suppression.
  sim::Time suppress_window = sim::us(400);
  std::uint8_t tag = kMemberTag;
  std::uint64_t seed = 0x51f7eedull;
  /// Inbox ring slots per source node (tolerates this many unconsumed
  /// messages from one source before overwrite).
  int inbox_slots = 8;

  /// Legacy baseline: all-pairs heartbeat writes every `period`, silence
  /// longer than `mesh_timeout` marks Dead directly (the detector the KV
  /// layer used before SWIM). No suspicion, no gossip, O(n) per node.
  bool mesh = false;
  sim::Time mesh_timeout = sim::ms(2);
};

/// Upper bound on crash-to-everyone-knows convergence (detection by the
/// unlucky last prober plus epidemic dissemination), used by the test suite:
/// every node cycles through all peers in at most n-1 periods... but with
/// probe suppression and randomized round-robin, SOME node probes the dead
/// peer within a couple of periods with high probability; dissemination then
/// takes O(log n) periods. The bound below is deliberately loose (it is a
/// test ceiling, not an expectation).
sim::Time detection_bound(const MemberConfig& cfg, int n);

/// One node's membership view (read-side API; updated by the service fiber).
class View {
 public:
  View(int self, int n)
      : self_(self),
        state_(n, PeerState::kAlive),
        incarnation_(n, 0),
        down_(n, false) {}

  PeerState state(int peer) const { return state_[peer]; }
  std::uint64_t incarnation(int peer) const { return incarnation_[peer]; }
  /// Dead peers only — suspicion is NOT down (it is refutable).
  bool is_down(int peer) const { return down_[peer]; }
  const std::vector<bool>& down_map() const { return down_; }
  int num_down() const { return num_down_; }
  /// True once this node learns that the rest of the cluster declared it
  /// Dead (sticky). Fail-fast collectives abort on it; the view's own
  /// routing (is_down, down_map) is unaffected.
  bool declared_dead() const { return declared_dead_; }
  int self() const { return self_; }

 private:
  friend class Service;
  int self_;
  std::vector<PeerState> state_;
  std::vector<std::uint64_t> incarnation_;
  std::vector<bool> down_;
  int num_down_ = 0;
  bool declared_dead_ = false;
};

/// Cluster-wide membership service: allocates the symmetric inbox domain and
/// spawns one protocol fiber per node. Construct host-side (before
/// Cluster::run), after any other symmetric allocations. The fibers run
/// until stop() — owners that spawn finite workloads must call stop() when
/// their last worker exits (the KV System does this automatically).
class Service {
 public:
  Service(Cluster& cluster, MemberConfig cfg = {});

  Cluster& cluster() { return cluster_; }
  const MemberConfig& config() const { return cfg_; }
  View& view(int node) { return nodes_[node]->view; }
  const View& view(int node) const { return nodes_[node]->view; }

  /// Stop the service fibers (each wakes and exits at once).
  void stop();
  bool stopped() const { return stop_; }

  /// Observer hook, fired on EVERY state transition in any node's view:
  /// (observer node, peer, new state, sim time). Multiple subscribers
  /// compose — the KV layer's down-mark counters, the convergence benches,
  /// and the membership shadow-checker can all listen at once.
  void add_on_transition(
      std::function<void(int, int, PeerState, sim::Time)> fn) {
    on_transition_.push_back(std::move(fn));
  }

  stats::Counters& counters(int node) { return nodes_[node]->counters; }
  stats::Counters aggregate_counters() const;

  sim::Time detection_bound() const {
    return member::detection_bound(cfg_, cluster_.num_nodes());
  }

 private:
  struct NodeCtx;

  void fiber(Endpoint& ep);
  void mesh_fiber(Endpoint& ep);

  // --- wire helpers ---
  proto::Connection* conn_or_null(NodeCtx& ctx, Endpoint& ep, int peer);
  void send_msg(NodeCtx& ctx, Endpoint& ep, int dst, std::uint8_t type,
                int target, int origin, std::uint64_t seq);
  void handle_msg(NodeCtx& ctx, Endpoint& ep, const Notification& n);

  // --- state machine ---
  void start_probe(NodeCtx& ctx, Endpoint& ep);
  void advance_probe(NodeCtx& ctx, Endpoint& ep);
  bool passively_fresh(NodeCtx& ctx, Endpoint& ep, int peer) const;
  void apply_update(NodeCtx& ctx, int node, PeerState st, std::uint64_t inc);
  void eager_disseminate(NodeCtx& ctx, Endpoint& ep);
  void transition(NodeCtx& ctx, int peer, PeerState st);
  void enqueue_gossip(NodeCtx& ctx, int node);
  void mark_peer_alive(NodeCtx& ctx, int peer);
  int next_probe_target(NodeCtx& ctx);
  /// Marks matured suspicions Dead; returns when the next one matures.
  sim::Time check_suspects(NodeCtx& ctx);

  Cluster& cluster_;
  MemberConfig cfg_;
  int num_nodes_;
  int gossip_budget_;  // retransmit_factor * (ceil_log2(n) + 1)

  // Symmetric memory layout (same VAs on every node).
  std::uint32_t msg_stride_ = 0;
  std::uint64_t inbox_va_ = 0;   // [src][slot] message rings
  std::uint64_t build_va_ = 0;   // per-node outbound build buffer
  std::uint64_t hb_va_ = 0;      // mesh mode: per-peer heartbeat words
  std::uint64_t hb_src_va_ = 0;  // mesh mode: local heartbeat scratch

  std::uint64_t inbox_slot_va(int src, int slot) const {
    return inbox_va_ +
           (static_cast<std::uint64_t>(src) * cfg_.inbox_slots + slot) *
               msg_stride_;
  }
  std::uint64_t hb_slot_va(int src) const {
    return hb_va_ + static_cast<std::uint64_t>(src) * 8;
  }

  struct GossipEntry {
    int node;
    int sends_left;
  };

  /// An in-flight probe awaiting acks (direct or indirect phase).
  struct Probe {
    int target = -1;
    std::uint64_t seq = 0;
    sim::Time deadline = 0;
    bool indirect = false;  // ping-reqs already fanned out
    sim::Time started = 0;  // probe round start (span start time)
    trace::SpanContext ctx;  // root span: pings/ping-reqs stitch under it
  };

  struct NodeCtx {
    NodeCtx(int self, int n, std::uint64_t seed)
        : view(self, n), rng(seed) {}
    View view;
    sim::Rng rng;
    Endpoint* ep = nullptr;  // set by fiber(); carrier for eager gossip
    std::vector<sim::Time> connect_started;  // own connect() attempt, -1 = none
    std::vector<int> next_inbox_slot;       // outbound ring cursor, by peer
    std::vector<int> probe_order;           // shuffled round-robin schedule
    std::size_t probe_pos = 0;
    Probe probe;
    std::uint64_t next_seq = 1;
    std::vector<GossipEntry> gossip;
    std::vector<sim::Time> suspect_since;  // by peer; 0 = not suspected
    int num_suspects = 0;
    std::vector<std::uint64_t> mesh_last_val;   // mesh mode
    std::vector<sim::Time> mesh_last_change;    // mesh mode
    std::uint64_t mesh_counter = 0;
    stats::Counters counters;
  };

  std::vector<std::unique_ptr<NodeCtx>> nodes_;
  bool stop_ = false;
  std::vector<std::function<void(int, int, PeerState, sim::Time)>>
      on_transition_;
};

}  // namespace multiedge::member
