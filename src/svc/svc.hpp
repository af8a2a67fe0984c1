// RDMA-as-a-service connection broker (serving tier).
//
// Motivation (RDMAvisor, PAPERS.md): connection count is the scalability
// killer for RDMA services. MultiEdge's proto connections are cheap compared
// to real NIC QPs, but the architectural problem is the same — a serving
// node with thousands of client fibers must not open thousands of full
// window-buffered connections per peer. The broker is a per-node layer that
// multiplexes many client fibers ("tenants") over a SMALL pool of real proto
// connections:
//
//  * Connection pooling — `conns_per_peer` lazily-established connections
//    per (node, peer) pair, shared by every tenant on the node. A tenant is
//    pinned to pool slot `tenant_id % conns_per_peer` so its ops keep the
//    per-connection FIFO/fence semantics it would have had with a private
//    connection.
//
//  * Window-credit accounting — tenants borrow SEND CREDITS (window frames,
//    WireHeader::kMaxData bytes each) instead of whole windows. An op costs
//    ceil(bytes/frame) credits (for reads: the response volume), charged at
//    dispatch and released from the op's completion hook. The pool therefore
//    never buries a connection deeper than its sliding window, which is what
//    keeps queueing delay bounded and visible HERE (where it can be shed)
//    instead of inside the transport (where it cannot).
//
//  * Admission control — per-tenant and per-peer queue bounds. An op that
//    would overflow either bound is REJECTED immediately (SvcOp::rejected());
//    the tenant learns in zero simulated time and can back off. Shed before
//    collapse: bounded queues + explicit rejection are what hold p99 flat
//    past saturation in bench/svc_bench, where the connection-per-client
//    baseline's tail grows without bound.
//
//  * Deficit-round-robin fair queueing — per (peer, tenant) backlog queues
//    served by a per-node dispatcher fiber in byte-metered DRR
//    (`drr_quantum_bytes` per visit), so one hog tenant cannot starve the
//    others beyond its share. Uncontended ops bypass the dispatcher: when a
//    peer has no backlog and credits are free, submit() dispatches inline on
//    the tenant's own fiber — at low load the broker adds no latency.
//
//  * Rail-health-aware dispatch — the dispatcher consults the node's
//    trace::RailHealth scores (always-on telemetry) and shrinks the
//    effective credit limit of every pool connection while the node's worst
//    egress rail is sick (lossy/bursty/outaged), throttling new work into a
//    degraded fabric instead of stacking it onto retransmit queues.
//
// Each dispatched op records a kSvcOp trace span (child of the submitting
// fiber's span, parent of the proto op span) and per-tenant counters.
//
// The KV client path can run through the broker (KvConfig::conn_mode =
// kBroker); direct modes stay available as baselines. bench/svc_bench
// drives both through an open-loop generator and gates the curves in
// BENCH_svc.json.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "sim/wait_queue.hpp"
#include "stats/counters.hpp"

namespace multiedge::svc {

struct BrokerConfig {
  /// Real proto connections per (node, peer) pair. The whole point of the
  /// broker is that this stays small while the tenant count grows.
  int conns_per_peer = 1;
  /// Send credits (window frames) per pooled connection. 0 = the engine's
  /// ProtocolConfig::window_frames — borrow exactly the transport window.
  std::uint32_t credits_per_conn = 0;
  /// Admission bound: queued (not yet dispatched) ops per peer across all
  /// tenants. Submissions beyond it are rejected, not queued.
  std::uint32_t peer_queue_limit = 64;
  /// Admission bound: queued ops per tenant across all peers.
  std::uint32_t tenant_queue_limit = 16;
  /// DRR byte quantum added to a tenant queue's deficit per service visit
  /// (multiplied by the tenant's weight — Tenant::set_weight).
  std::uint32_t drr_quantum_bytes = 4096;
};

class Broker;
class Tenant;

/// One brokered operation. Returned as a shared handle: the submitting
/// tenant waits on it (wait_svc_op) while the broker (and the proto
/// completion hook) advance its state.
struct SvcOp {
  enum class Kind : std::uint8_t { kWrite, kRead, kGatherRead };
  enum class State : std::uint8_t { kQueued, kDispatched, kRejected };

  Kind kind = Kind::kWrite;
  int peer = -1;
  std::uint64_t remote_va = 0;  // gather: remote base
  std::uint64_t local_va = 0;
  std::uint32_t bytes = 0;      // write: payload; read/gather: response bytes
  std::uint16_t flags = 0;
  std::vector<GatherSegment> segs;  // gather reads only

  State state = State::kQueued;
  OpHandle handle;                  // valid once dispatched
  std::uint32_t credit_frames = 0;  // charged at dispatch
  Tenant* tenant = nullptr;
  sim::Time submitted_at = 0;
  trace::SpanContext ctx;           // kSvcOp span
  std::uint64_t parent_span = 0;
  /// Retry-after hint, set on admission-control rejections: the suggested
  /// backoff before resubmitting, the depth of the queue that bounced the op
  /// times Broker::visit_cost(). Zero on stop-path rejections — the broker
  /// is going away, retrying is pointless.
  sim::Time retry_after = 0;

  /// Terminal-state query: rejected, or dispatched and complete.
  bool test() const {
    return state == State::kRejected ||
           (state == State::kDispatched && handle.test());
  }
  bool rejected() const { return state == State::kRejected; }
};
using SvcOpPtr = std::shared_ptr<SvcOp>;

/// Per-client-fiber handle onto the node's broker. Submit calls must run on
/// a fiber of the tenant's node. close() (or destruction via the broker)
/// releases the tenant; when the last tenant of a broker closes, the
/// dispatcher fibers exit.
class Tenant {
 public:
  /// Remote write: local [local_va, ..+bytes) -> peer [remote_va, ...).
  SvcOpPtr write(int peer, std::uint64_t remote_va, std::uint64_t local_va,
                 std::uint32_t bytes, std::uint16_t flags = 0);
  /// Remote read: peer [remote_va, ..+bytes) -> local [local_va, ...).
  SvcOpPtr read(int peer, std::uint64_t local_va, std::uint64_t remote_va,
                std::uint32_t bytes, std::uint16_t flags = 0);
  /// Gather read: every segment relative to `remote_base`, one wire op.
  SvcOpPtr gather_read(int peer, std::vector<GatherSegment> segs,
                       std::uint64_t remote_base, std::uint16_t flags = 0);

  /// Release this tenant (idempotent). The last close stops the broker's
  /// dispatcher fibers.
  void close();

  /// DRR service weight: this tenant's queues earn `weight x
  /// drr_quantum_bytes` per dispatcher visit. Default 1 — every byte of
  /// behavior (and every fingerprint) is identical until a weight is set.
  void set_weight(std::uint32_t w);
  std::uint32_t weight() const { return weight_; }

  int node() const { return node_; }
  int id() const { return id_; }
  const std::string& name() const { return name_; }
  stats::Counters& counters() { return counters_; }
  const stats::Counters& counters() const { return counters_; }

 private:
  friend class Broker;
  Tenant(Broker& broker, int node, int id, std::string name)
      : broker_(broker), node_(node), id_(id), name_(std::move(name)) {}

  Broker& broker_;
  int node_;
  int id_;           // node-local tenant index (pins the pool slot)
  std::string name_;
  bool closed_ = false;
  std::uint32_t weight_ = 1;  // DRR quantum multiplier
  std::uint32_t queued_ = 0;  // queued (not dispatched) ops, all peers
  stats::Counters counters_;
};

/// Per-cluster broker: one dispatcher fiber and one connection pool per
/// node. Construct host-side (before Cluster::run); attach tenants host-side
/// or from their fibers.
class Broker {
 public:
  explicit Broker(Cluster& cluster, BrokerConfig cfg = {});

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Create a tenant on `node`. The broker owns the Tenant object (stable
  /// address until the broker dies).
  Tenant& attach(int node, std::string name);

  /// Stop the dispatcher fibers (also triggered by the last Tenant::close).
  /// Still-queued ops are rejected so no waiter hangs.
  void stop();
  bool stopped() const { return stop_; }

  const BrokerConfig& config() const { return cfg_; }
  Cluster& cluster() { return cluster_; }

  /// Host cost of one dispatcher visit that dispatches an op: the kernel
  /// entry plus descriptor build that every dispatch charges to the node's
  /// app CPU (HostCostModel). Rejection hints are queue depth x this.
  sim::Time visit_cost() const;

  /// Pooled connections opened so far (all nodes) — the number the ≥8×
  /// fewer-connections CI gate compares against the per-client baseline.
  std::uint64_t connections_opened() const;
  /// All broker-level + tenant counters merged.
  stats::Counters aggregate_counters() const;

  // --- test hooks ---
  std::uint32_t credits_in_use(int node, int peer) const;
  std::uint32_t queued_ops(int node, int peer) const;

 private:
  friend class Tenant;

  struct Slot {
    SharedConnection conn;
    std::uint32_t credits_used = 0;
  };
  struct TenantQueue {
    Tenant* tenant = nullptr;
    std::deque<SvcOpPtr> q;
    std::uint64_t deficit = 0;
    bool active = false;  // linked into PeerPool::rr
  };
  struct PeerPool {
    std::vector<Slot> slots;
    std::vector<TenantQueue> tq;     // [tenant id]
    std::deque<TenantQueue*> rr;     // DRR active list
    std::uint32_t queued = 0;        // total queued ops (admission bound)
  };
  struct NodeState {
    std::vector<std::unique_ptr<Tenant>> tenants;
    std::vector<PeerPool> pools;     // [peer]
    sim::WaitQueue conn_wait;
    stats::Counters counters;        // broker-level (dispatcher) counters
    bool flush_pending = false;      // batched ops dispatched, doorbell owed
    /// Bumped on every enqueue and credit release: the dispatcher sleeps
    /// until it moves (or the broker stops).
    std::uint64_t changes = 0;
  };

  SvcOpPtr submit(Tenant& t, SvcOpPtr op);
  void dispatch_loop(Endpoint& ep);
  /// One DRR sweep over every peer with backlog; returns true if any op was
  /// dispatched or a queue still waits only on its deficit (the next sweep
  /// serves it), false when everything left is credit-blocked or empty.
  bool dispatch_pass(Endpoint& ep, NodeState& ns);
  /// Dispatch `op` on its pinned slot; assumes credits were checked.
  void dispatch(NodeState& ns, Slot& slot, const SvcOpPtr& op);
  Slot& slot_for(Endpoint& ep, NodeState& ns, int peer, int tenant_id);
  std::uint32_t credit_cost(const SvcOp& op) const;
  /// Whether `slot` has the credits to take `op` under `limit`.
  bool fits(const Slot& slot, const SvcOp& op, std::uint32_t limit) const;
  /// Per-connection credit limit, shrunk while the node's worst egress rail
  /// is sick (see trace::RailHealth::Snapshot::score).
  std::uint32_t effective_credit_limit(int node) const;
  void on_tenant_closed();

  Cluster& cluster_;
  BrokerConfig cfg_;
  std::uint32_t credits_per_conn_ = 0;  // resolved against the engine config
  std::vector<std::unique_ptr<NodeState>> nodes_;
  bool stop_ = false;
  int tenants_active_ = 0;
  bool any_tenant_ = false;
};

/// Block the calling fiber (on the op's node) until a brokered op reaches a
/// terminal state or `timeout` passes: false = still pending at timeout.
bool wait_svc_op(Cluster& cluster, const SvcOpPtr& op, sim::Time timeout);

}  // namespace multiedge::svc
