#include "svc/svc.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "proto/wire.hpp"
#include "trace/trace.hpp"

namespace multiedge::svc {

namespace {

const stats::CounterId kCtrSubmitted =
    stats::CounterRegistry::intern("svc_ops_submitted");
const stats::CounterId kCtrRejectedTenant =
    stats::CounterRegistry::intern("svc_rejected_tenant_queue");
const stats::CounterId kCtrRejectedPeer =
    stats::CounterRegistry::intern("svc_rejected_peer_queue");
const stats::CounterId kCtrInline =
    stats::CounterRegistry::intern("svc_dispatched_inline");
const stats::CounterId kCtrQueued =
    stats::CounterRegistry::intern("svc_dispatched_queued");
const stats::CounterId kCtrBytes =
    stats::CounterRegistry::intern("svc_bytes_submitted");
const stats::CounterId kCtrCreditStalls =
    stats::CounterRegistry::intern("svc_credit_stalls");
const stats::CounterId kCtrConnsOpened =
    stats::CounterRegistry::intern("svc_conns_opened");
const stats::CounterId kCtrDrrRounds =
    stats::CounterRegistry::intern("svc_drr_rounds");
const stats::CounterId kCtrRailThrottled =
    stats::CounterRegistry::intern("svc_rail_throttled");
const stats::CounterId kCtrStopRejected =
    stats::CounterRegistry::intern("svc_rejected_at_stop");

}  // namespace

// ---------------------------------------------------------------------------
// Tenant
// ---------------------------------------------------------------------------

SvcOpPtr Tenant::write(int peer, std::uint64_t remote_va,
                       std::uint64_t local_va, std::uint32_t bytes,
                       std::uint16_t flags) {
  auto op = std::make_shared<SvcOp>();
  op->kind = SvcOp::Kind::kWrite;
  op->peer = peer;
  op->remote_va = remote_va;
  op->local_va = local_va;
  op->bytes = bytes;
  op->flags = flags;
  return broker_.submit(*this, std::move(op));
}

SvcOpPtr Tenant::read(int peer, std::uint64_t local_va,
                      std::uint64_t remote_va, std::uint32_t bytes,
                      std::uint16_t flags) {
  auto op = std::make_shared<SvcOp>();
  op->kind = SvcOp::Kind::kRead;
  op->peer = peer;
  op->remote_va = remote_va;
  op->local_va = local_va;
  op->bytes = bytes;
  op->flags = flags;
  return broker_.submit(*this, std::move(op));
}

SvcOpPtr Tenant::gather_read(int peer, std::vector<GatherSegment> segs,
                             std::uint64_t remote_base, std::uint16_t flags) {
  auto op = std::make_shared<SvcOp>();
  op->kind = SvcOp::Kind::kGatherRead;
  op->peer = peer;
  op->remote_va = remote_base;
  op->segs = std::move(segs);
  std::uint64_t total = 0;
  for (const GatherSegment& s : op->segs) total += s.length;
  op->bytes = static_cast<std::uint32_t>(total);
  op->flags = flags;
  return broker_.submit(*this, std::move(op));
}

void Tenant::close() {
  if (closed_) return;
  closed_ = true;
  broker_.on_tenant_closed();
}

void Tenant::set_weight(std::uint32_t w) {
  if (w < 1) throw std::invalid_argument("svc: tenant weight must be >= 1");
  weight_ = w;
}

// ---------------------------------------------------------------------------
// Broker
// ---------------------------------------------------------------------------

Broker::Broker(Cluster& cluster, BrokerConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  if (cfg_.conns_per_peer < 1) {
    throw std::invalid_argument("svc: conns_per_peer must be >= 1");
  }
  if (cfg_.drr_quantum_bytes < 1) {
    throw std::invalid_argument("svc: drr_quantum_bytes must be >= 1");
  }
  credits_per_conn_ =
      cfg_.credits_per_conn != 0
          ? cfg_.credits_per_conn
          : static_cast<std::uint32_t>(
                cluster_.config().protocol.window_frames);
  const int n = cluster_.num_nodes();
  nodes_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto ns = std::make_unique<NodeState>();
    ns->pools.resize(n);
    for (PeerPool& p : ns->pools) p.slots.resize(cfg_.conns_per_peer);
    nodes_.push_back(std::move(ns));
  }
  for (int i = 0; i < n; ++i) {
    cluster_.spawn(i, "svc-broker-" + std::to_string(i),
                   [this](Endpoint& ep) { dispatch_loop(ep); });
  }
}

Tenant& Broker::attach(int node, std::string name) {
  NodeState& ns = *nodes_[node];
  const int id = static_cast<int>(ns.tenants.size());
  ns.tenants.push_back(std::unique_ptr<Tenant>(
      new Tenant(*this, node, id, std::move(name))));
  // Grow every peer pool's DRR queue table to cover the new tenant.
  for (PeerPool& p : ns.pools) {
    p.tq.resize(ns.tenants.size());
    p.tq[id].tenant = ns.tenants[id].get();
  }
  ++tenants_active_;
  any_tenant_ = true;
  return *ns.tenants[id];
}

void Broker::on_tenant_closed() {
  if (--tenants_active_ == 0 && any_tenant_) stop();
}

void Broker::stop() {
  if (stop_) return;
  stop_ = true;
  // Nothing will drain the backlog anymore: fail queued ops loudly rather
  // than leaving their waiters to spin forever.
  for (auto& ns : nodes_) {
    for (PeerPool& pool : ns->pools) {
      for (TenantQueue& tq : pool.tq) {
        for (const SvcOpPtr& op : tq.q) {
          op->state = SvcOp::State::kRejected;
          ns->counters.add(kCtrStopRejected);
        }
        tq.q.clear();
        tq.active = false;
      }
      pool.rr.clear();
      pool.queued = 0;
    }
  }
  // Wake the dispatchers and every waiter on a just-rejected op.
  for (int i = 0; i < cluster_.num_nodes(); ++i) {
    cluster_.endpoint(i).notify_waiters();
  }
}

sim::Time Broker::visit_cost() const {
  const proto::HostCostModel& c = cluster_.config().costs;
  return c.syscall_cost + c.op_build_cost;
}

bool Broker::fits(const Slot& slot, const SvcOp& op,
                  std::uint32_t limit) const {
  // A slot with nothing in flight always takes the head op: a rail-shrunk
  // limit below one op's cost would otherwise strand it for good.
  return slot.credits_used == 0 || slot.credits_used + credit_cost(op) <= limit;
}

std::uint32_t Broker::credit_cost(const SvcOp& op) const {
  constexpr std::uint32_t kFrame =
      static_cast<std::uint32_t>(proto::WireHeader::kMaxData);
  return std::max<std::uint32_t>(1, (op.bytes + kFrame - 1) / kFrame);
}

std::uint32_t Broker::effective_credit_limit(int node) const {
  const sim::Time now = cluster_.sim().now();
  double worst = 0.0;
  for (int r = 0; r < cluster_.config().topology.rails; ++r) {
    worst = std::max(worst, cluster_.rail_health(node, r).snapshot(now).score());
  }
  if (worst <= 0.0) return credits_per_conn_;
  // score 0 -> full window, score 1 (outage) -> quarter window. Always leave
  // at least one credit so the pool keeps probing a recovering rail.
  const double scale = 1.0 - 0.75 * std::min(worst, 1.0);
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(credits_per_conn_ * scale));
}

Broker::Slot& Broker::slot_for(Endpoint& ep, NodeState& ns, int peer,
                               int tenant_id) {
  PeerPool& pool = ns.pools[peer];
  Slot& s = pool.slots[tenant_id % cfg_.conns_per_peer];
  bool opened = false;
  s.conn.get(ep, peer, ns.conn_wait, &opened);
  if (opened) ns.counters.add(kCtrConnsOpened);
  return s;
}

void Broker::dispatch(NodeState& ns, Slot& slot, const SvcOpPtr& op) {
  op->credit_frames = credit_cost(*op);
  slot.credits_used += op->credit_frames;
  // The proto op adopts the svc span as its parent; the svc span itself was
  // parented on whatever the tenant fiber had current at submit time.
  const trace::SpanScope scope(op->ctx);
  Connection& conn = slot.conn.connection();
  OpHandle h;
  switch (op->kind) {
    case SvcOp::Kind::kWrite:
      h = conn.rdma_write(op->remote_va, op->local_va, op->bytes, op->flags);
      break;
    case SvcOp::Kind::kRead:
      h = conn.rdma_read(op->local_va, op->remote_va, op->bytes, op->flags);
      break;
    case SvcOp::Kind::kGatherRead:
      h = conn.rdma_gather_read(op->segs, op->remote_va, op->flags);
      break;
  }
  op->handle = h;
  op->state = SvcOp::State::kDispatched;
  if (op->flags & kOpFlagBatched) ns.flush_pending = true;
  // Completion hook (protocol context): release the credits and record the
  // svc span covering submit -> transport completion. No submissions happen
  // here — the dispatcher/tenant fibers pick freed credits up on their next
  // pass. Everything is captured BY VALUE (the hook lives inside the proto
  // SendOp, which the SvcOp's handle keeps alive — capturing the SvcOpPtr
  // here would create a shared_ptr cycle). `slot` and the tenant have stable
  // addresses for the broker's lifetime.
  Cluster* cluster = &cluster_;
  std::uint64_t* changes = &ns.changes;
  const int node = op->tenant->node();
  const int tenant_id = op->tenant->id();
  Slot* slot_p = &slot;
  const std::uint32_t frames = op->credit_frames;
  const std::uint32_t bytes = op->bytes;
  const auto kind = op->kind;
  const sim::Time submitted_at = op->submitted_at;
  const trace::SpanContext ctx = op->ctx;
  const std::uint64_t parent_span = op->parent_span;
  // The completion that runs this hook also wakes the node's waiters, the
  // dispatcher among them; bumping `changes` tells it the credits moved.
  h.on_complete([cluster, changes, node, tenant_id, slot_p, frames, bytes,
                 kind, submitted_at, ctx, parent_span]() {
    slot_p->credits_used -= std::min(slot_p->credits_used, frames);
    ++*changes;
    trace::TraceRecorder* tr = cluster->tracer();
    if (tr != nullptr && ctx.active()) {
      const sim::Time now = cluster->sim().now();
      tr->record_span(submitted_at, now - submitted_at,
                      trace::EventType::kSvcOp, node, -1, -1,
                      static_cast<std::uint64_t>(tenant_id) << 8 |
                          static_cast<std::uint64_t>(kind),
                      bytes, ctx, parent_span);
    }
  });
}

SvcOpPtr Broker::submit(Tenant& t, SvcOpPtr op) {
  NodeState& ns = *nodes_[t.node_];
  PeerPool& pool = ns.pools[op->peer];
  op->tenant = &t;
  op->submitted_at = cluster_.sim().now();
  t.counters_.add(kCtrSubmitted);
  t.counters_.add(kCtrBytes, op->bytes);
  trace::TraceRecorder* tr = cluster_.tracer();
  if (tr != nullptr) {
    const trace::SpanContext cur = trace::SpanScope::current();
    op->ctx = cur.active() ? tr->new_child(cur) : tr->new_root();
    op->parent_span = cur.span_id;
  }

  if (stop_) {
    op->state = SvcOp::State::kRejected;
    ns.counters.add(kCtrStopRejected);
    return op;
  }
  // Admission control: reject instead of queueing beyond the bounds. The
  // rejection carries a retry-after hint sized to the backlog that bounced
  // the op: each queued op costs the dispatcher at least one visit, so
  // depth x visit cost is a lower bound on the time for the queue to drain
  // back under its bound.
  if (t.queued_ >= cfg_.tenant_queue_limit) {
    op->state = SvcOp::State::kRejected;
    op->retry_after = visit_cost() * static_cast<sim::Time>(t.queued_);
    t.counters_.add(kCtrRejectedTenant);
    return op;
  }
  if (pool.queued >= cfg_.peer_queue_limit) {
    op->state = SvcOp::State::kRejected;
    op->retry_after = visit_cost() * static_cast<sim::Time>(pool.queued);
    t.counters_.add(kCtrRejectedPeer);
    return op;
  }

  // Inline fast path: no backlog for this peer and the pinned connection has
  // the credits — dispatch on the tenant's own fiber (identical cost model
  // to a direct connection, no dispatcher latency). slot_for may block on a
  // lazy handshake, so the credit check runs after it returns.
  if (pool.queued == 0) {
    Endpoint& ep = cluster_.endpoint(t.node_);
    Slot& slot = slot_for(ep, ns, op->peer, t.id_);
    if (pool.queued == 0 && fits(slot, *op, effective_credit_limit(t.node_))) {
      dispatch(ns, slot, op);
      t.counters_.add(kCtrInline);
      return op;
    }
  }

  // Backlog path: enqueue under DRR; the dispatcher fiber drains it.
  TenantQueue& tq = pool.tq[t.id_];
  tq.q.push_back(op);
  if (!tq.active) {
    tq.active = true;
    tq.deficit = 0;
    pool.rr.push_back(&tq);
  }
  ++pool.queued;
  ++t.queued_;
  ++ns.changes;
  cluster_.endpoint(t.node_).notify_waiters();  // wake the dispatcher
  return op;
}

void Broker::dispatch_loop(Endpoint& ep) {
  NodeState& ns = *nodes_[ep.node_id()];
  while (!stop_) {
    const std::uint64_t seen = ns.changes;
    const bool did = dispatch_pass(ep, ns);
    if (ns.flush_pending) {
      ns.flush_pending = false;
      ep.flush();  // one doorbell covers the whole batched pass
    }
    // Nothing dispatchable: sleep until an op is queued or credits free up.
    if (!did) ep.wait_until([&] { return stop_ || ns.changes != seen; });
  }
}

bool Broker::dispatch_pass(Endpoint& ep, NodeState& ns) {
  bool any = false;
  const std::uint32_t limit = effective_credit_limit(ep.node_id());
  if (limit < credits_per_conn_) {
    ns.counters.add(kCtrRailThrottled);
  }
  for (int peer = 0; peer < static_cast<int>(ns.pools.size()); ++peer) {
    PeerPool& pool = ns.pools[peer];
    if (pool.rr.empty()) continue;
    // One DRR round over the active tenant queues of this peer. A queue
    // blocked only on credits keeps its deficit and stays in the rotation.
    std::size_t visits = pool.rr.size();
    while (visits-- > 0 && !pool.rr.empty()) {
      TenantQueue* tq = pool.rr.front();
      pool.rr.pop_front();
      // Weighted DRR: a tenant's queue earns weight x quantum per visit, so
      // long-run throughput shares converge to the weight ratio. Weight 1
      // (the default) is plain DRR, byte for byte.
      const std::uint64_t quantum =
          static_cast<std::uint64_t>(cfg_.drr_quantum_bytes) *
          tq->tenant->weight_;
      tq->deficit += quantum;
      ns.counters.add(kCtrDrrRounds);
      bool credit_blocked = false;
      while (!tq->q.empty()) {
        const SvcOpPtr& head = tq->q.front();
        if (head->bytes > tq->deficit) break;  // spent this visit's quantum
        Slot& slot = slot_for(ep, ns, peer, tq->tenant->id());
        if (!fits(slot, *head, limit)) {
          tq->tenant->counters_.add(kCtrCreditStalls);
          // A credit-blocked visit is not a service opportunity: take this
          // visit's quantum back, or stalls would inflate the deficit into
          // an unfair burst once credits free up.
          tq->deficit -= std::min<std::uint64_t>(tq->deficit, quantum);
          credit_blocked = true;
          break;
        }
        SvcOpPtr op = tq->q.front();
        tq->q.pop_front();
        --pool.queued;
        --op->tenant->queued_;
        tq->deficit -= std::min<std::uint64_t>(tq->deficit, op->bytes);
        dispatch(ns, slot, op);
        tq->tenant->counters_.add(kCtrQueued);
        any = true;
      }
      if (tq->q.empty()) {
        tq->active = false;
        tq->deficit = 0;
      } else if (credit_blocked) {
        // Keep the blocked queue's TURN: it stays at the front, so the next
        // freed credits are claimed by round-robin order, not by whichever
        // queue happens to sit in front when the dispatcher tick lands
        // (deterministic lockstep can otherwise phase-lock one tenant out).
        pool.rr.push_front(tq);
        break;  // no credits on this connection: stop burning the pass
      } else {
        // Stopped on its deficit alone: the next round tops it up, so run
        // that round now. Nothing else would wake the dispatcher for it.
        pool.rr.push_back(tq);  // back of the rotation, deficit preserved
        any = true;
      }
    }
  }
  return any;
}

std::uint64_t Broker::connections_opened() const {
  std::uint64_t total = 0;
  for (const auto& ns : nodes_) {
    total += ns->counters.get(kCtrConnsOpened);
  }
  return total;
}

stats::Counters Broker::aggregate_counters() const {
  stats::Counters all;
  for (const auto& ns : nodes_) {
    all.merge(ns->counters);
    for (const auto& t : ns->tenants) all.merge(t->counters_);
  }
  return all;
}

std::uint32_t Broker::credits_in_use(int node, int peer) const {
  std::uint32_t total = 0;
  for (const Slot& s : nodes_[node]->pools[peer].slots) {
    total += s.credits_used;
  }
  return total;
}

std::uint32_t Broker::queued_ops(int node, int peer) const {
  return nodes_[node]->pools[peer].queued;
}

// ---------------------------------------------------------------------------
// wait helper
// ---------------------------------------------------------------------------

bool wait_svc_op(Cluster& cluster, const SvcOpPtr& op, sim::Time timeout) {
  return cluster.endpoint(op->tenant->node())
      .wait_until([&] { return op->test(); }, cluster.sim().now() + timeout);
}

}  // namespace multiedge::svc
