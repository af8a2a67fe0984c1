#include "proto/engine.hpp"

#include <cassert>
#include <utility>

#include "net/frame_pool.hpp"

namespace multiedge::proto {

namespace {
// Per-frame counters are interned once so the hot path is a vector add, not
// a map lookup (see stats::CounterRegistry).
const stats::CounterId kCtrInterrupts =
    stats::CounterRegistry::intern("interrupts");
const stats::CounterId kCtrThreadWakeups =
    stats::CounterRegistry::intern("thread_wakeups");
const stats::CounterId kCtrThreadEvents =
    stats::CounterRegistry::intern("thread_events");
const stats::CounterId kCtrTxCompletions =
    stats::CounterRegistry::intern("tx_completions");
const stats::CounterId kCtrMalformedFrames =
    stats::CounterRegistry::intern("malformed_frames");
const stats::CounterId kCtrFramesUnknownConn =
    stats::CounterRegistry::intern("frames_unknown_conn");
const stats::CounterId kCtrSynRetries =
    stats::CounterRegistry::intern("syn_retries");
const stats::CounterId kCtrCtrlSendFailed =
    stats::CounterRegistry::intern("ctrl_send_failed");
const stats::CounterId kCtrDupSyn = stats::CounterRegistry::intern("dup_syn");
const stats::CounterId kCtrConnAcks =
    stats::CounterRegistry::intern("conn_acks");
const stats::CounterId kCtrNotificationsDelivered =
    stats::CounterRegistry::intern("notifications_delivered");
// Batched completion harvest (DESIGN.md §15). Only incremented when
// batch_submission is on, so default-config fingerprints never see it.
const stats::CounterId kCtrNotifyBatches =
    stats::CounterRegistry::intern("notify_batches");
}  // namespace

Engine::Engine(sim::Simulator& sim, int node_id, MemorySpace& memory,
               sim::Cpu& proto_cpu, ProtocolConfig config, HostCostModel costs)
    : sim_(sim),
      node_id_(node_id),
      memory_(memory),
      proto_cpu_(proto_cpu),
      cfg_(config),
      costs_(costs),
      rng_(0xa11ce5 + static_cast<std::uint64_t>(node_id) * 7919) {
  if (cfg_.check_invariants) {
    checker_ = std::make_unique<InvariantChecker>(node_id_);
  }
}

Engine::~Engine() = default;

void Engine::add_rail(net::Nic* nic) {
  rails_.push_back(nic);
  nic->set_irq_handler([this, rail = rails_.size() - 1] {
    // Interrupt context (§2.6): mask this NIC's interrupts, account the
    // interrupt entry cost, and signal the protocol kernel thread.
    proto_cpu_.charge(costs_.irq_cost);
    counters_.add(kCtrInterrupts);
    rails_[rail]->set_irq_enabled(false);
    signal_thread();
  });
}

void Engine::set_mac_table(std::vector<std::vector<net::MacAddr>> table) {
  mac_table_ = std::move(table);
}

// ---------------------------------------------------------------------------
// Protocol kernel thread
// ---------------------------------------------------------------------------

void Engine::signal_thread() {
  if (thread_active_) return;  // it will pick the new events up while polling
  thread_active_ = true;
  counters_.add(kCtrThreadWakeups);
  proto_cpu_.submit(costs_.thread_wakeup_cost, [this] { thread_loop(); });
}

void Engine::thread_loop() {
  sim::Time cost = 0;

  std::uint64_t completions = 0;
  for (auto* d : rails_) completions += d->take_tx_completions();
  if (completions > 0) {
    cost += static_cast<sim::Time>(completions) * costs_.tx_complete_cost;
    counters_.add(kCtrTxCompletions, completions);
  }

  // Poll every NIC, gathering up to one batch of frames (round-robin over
  // rails so one busy rail cannot starve the others). The batch vector is
  // recycled across wakeups so steady-state polling never allocates.
  std::vector<RxItem> batch = std::move(batch_spare_);
  batch.clear();
  bool more = true;
  while (more && batch.size() < cfg_.thread_batch_frames) {
    more = false;
    for (auto* d : rails_) {
      if (batch.size() >= cfg_.thread_batch_frames) break;
      net::FramePtr f = d->rx_pop();
      if (!f) continue;
      more = true;
      RxItem item;
      item.frame = std::move(f);
      if (!decode_frame_payload(item.frame->payload, item.decoded)) {
        counters_.add(kCtrMalformedFrames);
        continue;
      }
      cost += costs_.rx_frame_cost;
      if (item.decoded.hdr.kind == FrameKind::kData) {
        // Kernel -> user copy of the fragment data (§2.3, marker 4).
        cost += costs_.copy_cost_kernel(item.decoded.data.size());
      }
      batch.push_back(std::move(item));
    }
  }

  if (batch.empty() && completions == 0) {
    batch_spare_ = std::move(batch);
    // Nothing to process: sweep any submission rings whose doorbell was
    // never rung (batching safety net), drain any backlog the rings now
    // have room for, send solicited acks for operations that completed
    // during the burst, re-enable interrupts, and put the thread to sleep
    // (§2.6).
    flush_submission_rings(proto_cpu_);
    flush_notifications(proto_cpu_);
    flush_backlog();
    for (const auto& c : conns_) c->solicit_ack_at_idle();
    for (auto* d : rails_) d->set_irq_enabled(true);
    bool pending = false;
    for (auto* d : rails_) pending = pending || d->events_pending();
    if (!pending) {
      thread_active_ = false;
      return;
    }
    for (auto* d : rails_) d->set_irq_enabled(false);
    sim_.in(0, [this] { thread_loop(); });
    return;
  }

  // One protocol-thread pass: `completions + batch` events handled per
  // wakeup. thread_events / thread_wakeups is the measured coalescing
  // factor (§2.6).
  counters_.add(kCtrThreadEvents, completions + batch.size());
  if (tracer_) {
    tracer_->record(sim_.now(), trace::EventType::kThreadBatch, node_id_, -1,
                    -1, completions, batch.size());
  }

  proto_cpu_.submit(cost, [this, b = std::move(batch)]() mutable {
    for (auto& item : b) dispatch(item);
    b.clear();
    batch_spare_ = std::move(b);
    flush_notifications(proto_cpu_);
    flush_backlog();
    thread_loop();
  });
}

void Engine::dispatch(RxItem& item) {
  const WireHeader& h = item.decoded.hdr;
  switch (h.kind) {
    case FrameKind::kConnSyn:
      on_syn(item.decoded);
      break;
    case FrameKind::kConnSynAck:
      on_syn_ack(item.decoded);
      break;
    case FrameKind::kConnAck:
      on_conn_ack(item.decoded);
      break;
    case FrameKind::kAck: {
      Connection* c = find_conn(h.conn_id);
      if (!c) {
        counters_.add(kCtrFramesUnknownConn);
        return;
      }
      note_rx_from(c->peer_node());
      c->handle_ack_frame(item.decoded, proto_cpu_);
      break;
    }
    case FrameKind::kData:
    case FrameKind::kReadReq: {
      Connection* c = find_conn(h.conn_id);
      if (!c) {
        counters_.add(kCtrFramesUnknownConn);
        return;
      }
      note_rx_from(c->peer_node());
      c->process_ack(h.ack, proto_cpu_);
      c->handle_data_frame(item.frame, item.decoded, proto_cpu_);
      break;
    }
  }
}

void Engine::note_rx_from(int peer) {
  if (peer < 0) return;
  if (static_cast<std::size_t>(peer) >= last_rx_.size()) {
    last_rx_.resize(peer + 1, 0);
  }
  last_rx_[peer] = sim_.now();
}

void Engine::note_established(Connection* conn) {
  const auto peer = static_cast<std::size_t>(conn->peer_node());
  if (peer >= established_.size()) established_.resize(peer + 1, nullptr);
  if (established_[peer] == nullptr) established_[peer] = conn;
  conn_events_.notify_all();
}

void Engine::flush_backlog() {
  if (backlog_.empty()) return;
  backlog_scratch_.swap(backlog_);
  for (Connection* c : backlog_scratch_) {
    c->in_backlog_ = false;
    c->try_transmit(proto_cpu_);  // re-registers itself if still blocked
  }
  backlog_scratch_.clear();
}

// ---------------------------------------------------------------------------
// Connections & handshake
// ---------------------------------------------------------------------------

Connection* Engine::find_conn(std::uint32_t local_id) {
  // Ids are dense from 1, so this is a bounds check plus an array load —
  // it runs once per received frame.
  const std::uint32_t idx = local_id - 1;
  return local_id != 0 && idx < conns_by_id_.size() ? conns_by_id_[idx]
                                                    : nullptr;
}

std::vector<Connection::Link> Engine::links_to(int peer) const {
  assert(peer >= 0 && static_cast<std::size_t>(peer) < mac_table_.size() &&
         "unknown peer node — was set_mac_table() called?");
  std::vector<Connection::Link> links;
  links.reserve(rails_.size());
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    links.push_back(Connection::Link{rails_[r], mac_table_[peer][r]});
  }
  return links;
}

Connection* Engine::make_connection(int peer, bool is_initiator) {
  const std::uint32_t id = next_conn_id_++;
  auto conn =
      std::make_unique<Connection>(*this, id, peer, links_to(peer), is_initiator);
  Connection* raw = conn.get();
  conns_.push_back(std::move(conn));
  assert(id == conns_by_id_.size() + 1);
  conns_by_id_.push_back(raw);
  return raw;
}

Connection* Engine::connect(int peer) {
  Connection* conn = make_connection(peer, /*is_initiator=*/true);
  conn->set_state(ConnState::kSynSent);

  auto send_syn = [this, conn, peer] {
    WireHeader h;
    h.kind = FrameKind::kConnSyn;
    h.conn_id = conn->local_id();
    h.src_node = static_cast<std::uint16_t>(node_id_);
    send_ctrl_frame(peer, h, proto_cpu_);
  };
  PendingConnect pc;
  pc.conn = conn;
  pc.retry = std::make_unique<sim::Timer>(sim_, [this, send_syn,
                                                 id = conn->local_id()] {
    auto it = pending_connects_.find(id);
    if (it == pending_connects_.end()) return;
    counters_.add(kCtrSynRetries);
    send_syn();
    it->second.retry->schedule(cfg_.connect_retry_timeout);
  });
  pc.retry->schedule(cfg_.connect_retry_timeout);
  pending_connects_.emplace(conn->local_id(), std::move(pc));
  send_syn();
  return conn;
}

Connection* Engine::responder_for(int peer) {
  for (const auto& [key, conn] : responder_index_) {
    if (key.first == peer && conn->state() == ConnState::kEstablished) {
      return conn;
    }
  }
  return nullptr;
}

void Engine::send_ctrl_frame(int peer, const WireHeader& hdr, sim::Cpu& cpu) {
  // Handshake control frames always use rail 0.
  auto frame = net::frame_pool().acquire();
  encode_frame_payload_into(frame->payload, hdr);
  frame->src = rails_[0]->mac();
  frame->dst = mac_table_[peer][0];
  cpu.charge(costs_.tx_frame_cost);
  if (!rails_[0]->tx(std::move(frame))) {
    counters_.add(kCtrCtrlSendFailed);  // retry timers recover
  }
}

void Engine::on_syn(const DecodedFrame& df) {
  const int peer = df.hdr.src_node;
  const auto key = std::make_pair(peer, df.hdr.conn_id);
  Connection* conn = nullptr;
  auto it = responder_index_.find(key);
  if (it != responder_index_.end()) {
    conn = it->second;  // duplicate SYN: our SYN-ACK was lost; resend it
    counters_.add(kCtrDupSyn);
  } else {
    conn = make_connection(peer, /*is_initiator=*/false);
    conn->set_remote_id(df.hdr.conn_id);
    conn->set_state(ConnState::kEstablished);
    responder_index_.emplace(key, conn);
    note_established(conn);
  }
  WireHeader h;
  h.kind = FrameKind::kConnSynAck;
  h.conn_id = df.hdr.conn_id;       // routes to the initiator's connection
  h.op_id = conn->local_id();       // tells the initiator our id
  h.src_node = static_cast<std::uint16_t>(node_id_);
  send_ctrl_frame(peer, h, proto_cpu_);
}

void Engine::on_syn_ack(const DecodedFrame& df) {
  Connection* conn = find_conn(df.hdr.conn_id);
  if (!conn) {
    counters_.add(kCtrFramesUnknownConn);
    return;
  }
  if (conn->state() == ConnState::kSynSent) {
    conn->set_remote_id(static_cast<std::uint32_t>(df.hdr.op_id));
    conn->set_state(ConnState::kEstablished);
    pending_connects_.erase(conn->local_id());
    note_established(conn);
    conn->try_transmit(proto_cpu_);
  }
  // Always (re)confirm — the responder may have missed our CONN-ACK.
  WireHeader h;
  h.kind = FrameKind::kConnAck;
  h.conn_id = conn->remote_id();
  h.src_node = static_cast<std::uint16_t>(node_id_);
  send_ctrl_frame(conn->peer_node(), h, proto_cpu_);
}

void Engine::on_conn_ack(const DecodedFrame& df) {
  counters_.add(kCtrConnAcks);
  (void)df;  // the responder was usable as soon as it answered the SYN
}

// ---------------------------------------------------------------------------
// Notifications & stats
// ---------------------------------------------------------------------------

void Engine::deliver_notification(Notification n, sim::Cpu& cpu, bool urgent) {
  if (cfg_.batch_submission && !urgent) {
    // Batched harvest: queued now, delivered (one wakeup for the whole
    // batch) at the end of the protocol thread's dispatch pass.
    pending_notify_.push_back(n);
    return;
  }
  cpu.charge(costs_.notify_cost);
  counters_.add(kCtrNotificationsDelivered);
  notifications_.push_back(n);
  notify_events_.notify_all();
}

void Engine::flush_notifications(sim::Cpu& cpu) {
  if (pending_notify_.empty()) return;
  // First delivery of the batch pays the full queue-insert + waiter wakeup;
  // the rest ride the same wakeup for notify_item_cost each.
  cpu.charge(costs_.notify_cost +
             static_cast<sim::Time>(pending_notify_.size() - 1) *
                 costs_.notify_item_cost);
  counters_.add(kCtrNotifyBatches);
  counters_.add(kCtrNotificationsDelivered, pending_notify_.size());
  for (const Notification& n : pending_notify_) notifications_.push_back(n);
  pending_notify_.clear();
  notify_events_.notify_all();
}

bool Engine::has_dirty_rings() const {
  for (const Connection* c : dirty_rings_) {
    if (c->submit_ring_depth() > 0) return true;
  }
  return false;
}

void Engine::flush_submission_rings(sim::Cpu& cpu) {
  if (dirty_rings_.empty()) return;
  dirty_rings_scratch_.swap(dirty_rings_);
  for (Connection* c : dirty_rings_scratch_) {
    c->in_dirty_ring_ = false;
    c->ring_doorbell(cpu, /*charge_syscall=*/false);
  }
  dirty_rings_scratch_.clear();
}

bool Engine::has_notification(int tag) const {
  if (tag < 0) return !notifications_.empty();
  for (const Notification& n : notifications_) {
    if (static_cast<int>(n.tag) == tag) return true;
  }
  return false;
}

Notification Engine::pop_notification(int tag) {
  assert(has_notification(tag));
  if (tag < 0) {
    Notification n = notifications_.front();
    notifications_.pop_front();
    return n;
  }
  for (auto it = notifications_.begin(); it != notifications_.end(); ++it) {
    if (static_cast<int>(it->tag) == tag) {
      Notification n = *it;
      notifications_.erase(it);
      return n;
    }
  }
  assert(false && "pop_notification: no notification with requested tag");
  return Notification{};
}

namespace {
bool notify_matches(const Notification& n, int tag, int src, std::uint64_t va) {
  return static_cast<int>(n.tag) == tag && (src < 0 || n.src_node == src) &&
         (va == Engine::kAnyNotifyVa || n.va == va);
}
}  // namespace

bool Engine::has_notification_match(int tag, int src, std::uint64_t va) const {
  for (const Notification& n : notifications_) {
    if (notify_matches(n, tag, src, va)) return true;
  }
  return false;
}

bool Engine::pop_notification_match(int tag, int src, std::uint64_t va,
                                    Notification* out) {
  for (auto it = notifications_.begin(); it != notifications_.end(); ++it) {
    if (notify_matches(*it, tag, src, va)) {
      *out = *it;
      notifications_.erase(it);
      return true;
    }
  }
  return false;
}

stats::Counters Engine::aggregate_counters() const {
  stats::Counters out = counters_;
  for (const auto& c : conns_) out.merge(c->counters());
  return out;
}

}  // namespace multiedge::proto
