#include "proto/connection.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "net/frame_pool.hpp"
#include "proto/engine.hpp"

namespace multiedge::proto {

namespace {
// Hot-path (per-frame / per-op) counters, interned once.
const stats::CounterId kCtrDataFramesSent =
    stats::CounterRegistry::intern("data_frames_sent");
const stats::CounterId kCtrDataBytesSent =
    stats::CounterRegistry::intern("data_bytes_sent");
const stats::CounterId kCtrDataFramesRcvd =
    stats::CounterRegistry::intern("data_frames_rcvd");
const stats::CounterId kCtrDataBytesRcvd =
    stats::CounterRegistry::intern("data_bytes_rcvd");
const stats::CounterId kCtrAckFramesSent =
    stats::CounterRegistry::intern("ack_frames_sent");
const stats::CounterId kCtrAckFramesRcvd =
    stats::CounterRegistry::intern("ack_frames_rcvd");
const stats::CounterId kCtrOpsSubmitted =
    stats::CounterRegistry::intern("ops_submitted");
const stats::CounterId kCtrOpsCompleted =
    stats::CounterRegistry::intern("ops_completed");
const stats::CounterId kCtrBytesSubmitted =
    stats::CounterRegistry::intern("bytes_submitted");
const stats::CounterId kCtrWindowStalls =
    stats::CounterRegistry::intern("window_stalls");
const stats::CounterId kCtrRetransmissions =
    stats::CounterRegistry::intern("retransmissions");
const stats::CounterId kCtrOooFramesRcvd =
    stats::CounterRegistry::intern("ooo_frames_rcvd");
const stats::CounterId kCtrScatterOpsSubmitted =
    stats::CounterRegistry::intern("scatter_ops_submitted");
const stats::CounterId kCtrReadsSubmitted =
    stats::CounterRegistry::intern("reads_submitted");
const stats::CounterId kCtrGatherReadsSubmitted =
    stats::CounterRegistry::intern("gather_reads_submitted");
const stats::CounterId kCtrReadResponses =
    stats::CounterRegistry::intern("read_responses");
const stats::CounterId kCtrGatherResponses =
    stats::CounterRegistry::intern("gather_responses");
const stats::CounterId kCtrNacksRcvd =
    stats::CounterRegistry::intern("nacks_rcvd");
const stats::CounterId kCtrNacksSent =
    stats::CounterRegistry::intern("nacks_sent");
const stats::CounterId kCtrRtoEvents =
    stats::CounterRegistry::intern("rto_events");
const stats::CounterId kCtrDuplicatesDiscarded =
    stats::CounterRegistry::intern("duplicates_discarded");
const stats::CounterId kCtrFramesBuffered =
    stats::CounterRegistry::intern("frames_buffered");
const stats::CounterId kCtrFenceBlockedFrames =
    stats::CounterRegistry::intern("fence_blocked_frames");
const stats::CounterId kCtrScatterOpsApplied =
    stats::CounterRegistry::intern("scatter_ops_applied");
const stats::CounterId kCtrScatterDecodeFailed =
    stats::CounterRegistry::intern("scatter_decode_failed");
const stats::CounterId kCtrGatherReadsServed =
    stats::CounterRegistry::intern("gather_reads_served");
const stats::CounterId kCtrGatherDecodeFailed =
    stats::CounterRegistry::intern("gather_decode_failed");
const stats::CounterId kCtrReadsCompleted =
    stats::CounterRegistry::intern("reads_completed");
const stats::CounterId kCtrAckSendFailed =
    stats::CounterRegistry::intern("ack_send_failed");
// Batching/signaling counters (DESIGN.md §15). Only ever incremented when
// batch_submission / signal_interval>1 is configured, so default-config
// counter fingerprints never see them.
const stats::CounterId kCtrDoorbells =
    stats::CounterRegistry::intern("doorbells");
const stats::CounterId kCtrDoorbellOps =
    stats::CounterRegistry::intern("doorbell_ops");
const stats::CounterId kCtrOpsSignaled =
    stats::CounterRegistry::intern("ops_signaled");
const stats::CounterId kCtrOpsUnsignaled =
    stats::CounterRegistry::intern("ops_unsignaled");

// Adopt the submitting fiber's span (if any) as `op`'s parent and give the
// op its own child span. No-op unless a recorder exists and the fiber
// carries an active context, so untraced traffic records nothing and
// allocates no ids — same-seed golden traces stay byte-identical.
void adopt_span(trace::TraceRecorder* t, SendOp& op) {
  if (t == nullptr) return;
  const trace::SpanContext cur = trace::SpanScope::current();
  if (!cur.active()) return;
  op.parent_span = cur.span_id;
  op.ctx = t->new_child(cur);
}
}  // namespace

Connection::Connection(Engine& engine, std::uint32_t local_id, int peer_node,
                       std::vector<Link> links, bool initiator)
    : engine_(engine),
      local_id_(local_id),
      peer_node_(peer_node),
      links_(std::move(links)),
      initiator_(initiator),
      retransmit_timer_(engine.sim(),
                        [this] { on_retransmit_timeout(engine_.proto_cpu()); }),
      ack_timer_(engine.sim(), [this] { on_ack_timeout(engine_.proto_cpu()); }),
      nack_timer_(engine.sim(), [this] { on_nack_timeout(engine_.proto_cpu()); }) {
  assert(!links_.empty());
  // The window is fixed for the connection's lifetime (§2.4): size every
  // seq-indexed ring once, here, and never rehash or rebalance again.
  const std::size_t w = std::max<std::size_t>(engine_.config().window_frames, 1);
  unacked_.resize(std::bit_ceil(w));
  seq_mask_ = unacked_.size() - 1;
  retx_queued_seqs_.init(w);
  ooo_buffer_.init(w);
  rcvd_above_.init(w);
  gaps_.init(w);
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void Connection::fragment_op(FrameKind kind, OpType op_type, SendOp& op,
                             std::uint64_t ffence_dep, std::uint64_t remote_va,
                             std::uint64_t aux_va,
                             std::span<const std::byte> data,
                             std::uint32_t op_size) {
  WireHeader h;
  h.kind = kind;
  h.op_type = op_type;
  h.op_flags = op.flags;
  h.conn_id = remote_id_;
  h.src_node = static_cast<std::uint16_t>(engine_.node_id());
  h.op_id = op.op_id;
  h.ffence_dep = ffence_dep;
  h.remote_va = remote_va;
  h.aux_va = aux_va;
  h.op_size = op_size;

  op.first_seq = next_seq_;
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(WireHeader::kMaxData, data.size() - off);
    h.seq = next_seq_++;
    h.frag_offset = static_cast<std::uint32_t>(off);
    auto frame = net::frame_pool().acquire();
    frame->urgent = (op.flags & kOpFlagUrgent) != 0;
    // Causal context rides out-of-band on the frame (see net::Frame): the
    // receiver stitches its op span under op.ctx without any wire change.
    frame->trace_id = op.ctx.trace_id;
    frame->span_id = op.ctx.span_id;
    encode_frame_payload_into(frame->payload, h, {}, data.subspan(off, n));
    pending_.push_back(OutFrame{std::move(frame), h.seq});
    off += n;
  } while (off < data.size());
  op.last_seq = next_seq_ - 1;
}

bool Connection::will_batch(std::uint16_t flags) const {
  if (!engine_.config().batch_submission) return false;
  // Urgent and fenced ops doorbell eagerly (latency / ordering visibility),
  // unless the caller explicitly opted the op into the ring with
  // kOpFlagBatched (it then relies on an explicit flush or a successor's
  // doorbell; wire-level urgency is preserved either way).
  if (flags & kOpFlagBatched) return true;
  return (flags &
          (kOpFlagUrgent | kOpFlagBackwardFence | kOpFlagForwardFence)) == 0;
}

std::uint16_t Connection::apply_signaling(std::uint16_t flags) {
  const std::uint32_t interval = engine_.config().signal_interval;
  if (interval <= 1) return flags;  // default: wire image unchanged
  // Fenced/urgent/notify/solicit ops are always signaled — someone is (or
  // may be) blocked on them; plain ops are signaled every Nth.
  constexpr std::uint16_t kAlwaysSignaled =
      kOpFlagUrgent | kOpFlagSolicit | kOpFlagNotify | kOpFlagBackwardFence |
      kOpFlagForwardFence;
  // Quiet-notify ops opt OUT of the force-signal for everything except
  // Solicit/ForwardFence (where the initiator or its successors genuinely
  // block on the ack): the initiator declared nobody waits, so only the
  // every-Nth cadence applies. Notification delivery and fence apply-order
  // are receiver-side and do not depend on the ack being solicited.
  const std::uint16_t always =
      (flags & kOpFlagQuietNotify)
          ? static_cast<std::uint16_t>(kOpFlagSolicit | kOpFlagForwardFence)
          : kAlwaysSignaled;
  bool signaled = (flags & always) != 0;
  if (!signaled && ++unsignaled_run_ >= interval) signaled = true;
  if (signaled) {
    unsignaled_run_ = 0;
    counters_.add(kCtrOpsSignaled);
    return static_cast<std::uint16_t>(flags | kOpFlagSignaled);
  }
  counters_.add(kCtrOpsUnsignaled);
  return flags;
}

void Connection::ring_doorbell(sim::Cpu& cpu, bool charge_syscall) {
  if (ring_depth_ == 0 && submit_barrier_ >= next_seq_) return;
  const HostCostModel& costs = engine_.costs();
  sim::Time cost =
      static_cast<sim::Time>(ring_depth_) * costs.submit_desc_cost;
  if (charge_syscall) cost += costs.syscall_cost;
  if (cost > 0) cpu.charge(cost);
  counters_.add(kCtrDoorbells);
  counters_.add(kCtrDoorbellOps, ring_depth_);
  if (auto* t = engine_.tracer()) {
    t->record(engine_.sim().now(), trace::EventType::kDoorbell,
              engine_.node_id(), -1, static_cast<int>(local_id_), ring_depth_,
              next_seq_ - submit_barrier_);
  }
  ring_depth_ = 0;
  submit_barrier_ = next_seq_;
  try_transmit(cpu);
}

SendOpPtr Connection::submit_op(const SubmitSpec& s,
                                std::initializer_list<stats::CounterId> ctrs,
                                bool count_bytes, sim::Cpu& cpu) {
  auto op = std::make_shared<SendOp>();
  op->op_id = next_op_id_++;
  op->kind = s.op_kind;
  op->size = s.op_bytes;
  if (s.parent != nullptr) {
    if (auto* t = engine_.tracer(); t != nullptr && s.parent->active()) {
      op->parent_span = s.parent->span_id;
      op->ctx = t->new_child(*s.parent);
    }
  } else {
    adopt_span(engine_.tracer(), *op);
  }

  const bool ring_kept = s.allow_ring && will_batch(s.flags);
  // kOpFlagBatched / kOpFlagQuietNotify are submit-side hints only; they
  // never reach the wire.
  op->flags = static_cast<std::uint16_t>(
      apply_signaling(s.flags) & ~(kOpFlagBatched | kOpFlagQuietNotify));

  std::uint64_t dep = kNoFenceDep;
  if (s.use_fence_dep) {
    dep = ffence_latest_;
    if (s.flags & kOpFlagForwardFence) ffence_latest_ = op->op_id;
  }
  fragment_op(s.frame_kind, s.op_type, *op, dep, s.remote_va, s.aux_va,
              s.data, s.wire_size);
  op->submitted_at = engine_.sim().now();
  if (s.track_read) {
    pending_reads_.insert_or_assign(op->op_id, op);
  } else {
    write_ops_.push_back(op);
  }
  for (stats::CounterId c : ctrs) counters_.add(c);
  if (count_bytes) counters_.add(kCtrBytesSubmitted, s.data.size());
  if (s.record_submit) {
    if (auto* t = engine_.tracer()) {
      t->record(op->submitted_at, trace::EventType::kOpSubmit,
                engine_.node_id(), -1, static_cast<int>(local_id_), op->op_id,
                op->size, op->ctx, op->parent_span);
    }
  }

  if (ring_kept) {
    ++ring_depth_;
    if (ring_depth_ >=
        std::max<std::uint32_t>(engine_.config().submit_ring_slots, 1)) {
      // Ring-threshold doorbell: the append that fills the ring pays the
      // kernel entry itself, on the submitting CPU.
      ring_doorbell(cpu, /*charge_syscall=*/true);
    } else {
      engine_.note_dirty_ring(this);
    }
  } else if (engine_.config().batch_submission && ring_depth_ > 0) {
    // An eager (urgent/fenced) op flushes the ring: its kernel entry —
    // already charged by the user-level library — doubles as the doorbell
    // for the buffered predecessors, which must go out first anyway (frames
    // transmit in sequence order).
    ring_doorbell(cpu, /*charge_syscall=*/false);
  } else {
    submit_barrier_ = next_seq_;
    try_transmit(cpu);
  }
  return op;
}

SendOpPtr Connection::submit_write(std::uint64_t remote_va,
                                   std::span<const std::byte> data,
                                   std::uint16_t flags, sim::Cpu& cpu) {
  assert(!data.empty() && "zero-length remote writes are not defined");
  SubmitSpec s;
  s.frame_kind = FrameKind::kData;
  s.op_type = OpType::kWrite;
  s.op_kind = OpKind::kWrite;
  s.remote_va = remote_va;
  s.data = data;
  s.wire_size = s.op_bytes = static_cast<std::uint32_t>(data.size());
  s.flags = flags;
  s.allow_ring = true;
  return submit_op(s, {kCtrOpsSubmitted}, /*count_bytes=*/true, cpu);
}

SendOpPtr Connection::submit_scatter_write(std::uint64_t remote_base_va,
                                           std::span<const std::byte> encoded,
                                           std::uint16_t flags, sim::Cpu& cpu) {
  assert(!encoded.empty());
  SubmitSpec s;
  s.frame_kind = FrameKind::kData;
  s.op_type = OpType::kScatterWrite;
  s.op_kind = OpKind::kWrite;
  s.remote_va = remote_base_va;
  s.data = encoded;
  s.wire_size = s.op_bytes = static_cast<std::uint32_t>(encoded.size());
  s.flags = flags;
  s.allow_ring = true;
  return submit_op(s, {kCtrOpsSubmitted, kCtrScatterOpsSubmitted},
                   /*count_bytes=*/true, cpu);
}

SendOpPtr Connection::submit_read(std::uint64_t local_va, std::uint64_t remote_va,
                                  std::uint32_t size, std::uint16_t flags,
                                  sim::Cpu& cpu) {
  assert(size > 0);
  // A read request is a single sequenced frame with no payload: remote_va is
  // the source at the target, aux_va the destination at the initiator.
  SubmitSpec s;
  s.frame_kind = FrameKind::kReadReq;
  s.op_type = OpType::kWrite;
  s.op_kind = OpKind::kRead;
  s.remote_va = remote_va;
  s.aux_va = local_va;
  s.wire_size = s.op_bytes = size;
  s.flags = flags;
  s.track_read = true;
  s.allow_ring = true;
  return submit_op(s, {kCtrReadsSubmitted}, /*count_bytes=*/false, cpu);
}

SendOpPtr Connection::submit_gather_read(std::uint64_t local_base_va,
                                         std::uint64_t remote_base_va,
                                         std::span<const std::byte> encoded,
                                         std::uint32_t total_bytes,
                                         std::uint16_t flags, sim::Cpu& cpu) {
  assert(!encoded.empty() && total_bytes > 0);
  // A gather read is a read request whose payload is the segment descriptor:
  // remote_va is the source base at the target, aux_va the destination base
  // at the initiator, and op_size the descriptor length (the receiver sizes
  // its reassembly buffer from it).
  SubmitSpec s;
  s.frame_kind = FrameKind::kReadReq;
  s.op_type = OpType::kGatherRead;
  s.op_kind = OpKind::kRead;
  s.remote_va = remote_base_va;
  s.aux_va = local_base_va;
  s.data = encoded;
  s.wire_size = static_cast<std::uint32_t>(encoded.size());
  s.op_bytes = total_bytes;
  s.flags = flags;
  s.track_read = true;
  s.allow_ring = true;
  return submit_op(s, {kCtrGatherReadsSubmitted}, /*count_bytes=*/false, cpu);
}

void Connection::submit_read_response(std::uint64_t dst_va, std::uint64_t src_va,
                                      std::uint32_t size, std::uint64_t req_op_id,
                                      sim::Cpu& cpu,
                                      const trace::SpanContext& parent) {
  // Read responses carry no fences of their own; the request's fences were
  // honoured when the response was generated.
  SubmitSpec s;
  s.frame_kind = FrameKind::kData;
  s.op_type = OpType::kReadResp;
  s.op_kind = OpKind::kWrite;
  s.remote_va = dst_va;
  s.aux_va = req_op_id;
  s.data = engine_.memory().view(src_va, size);
  s.wire_size = s.op_bytes = size;
  s.use_fence_dep = false;
  s.record_submit = false;
  s.parent = &parent;
  // Serving the read costs a kernel-side copy of the data into frames.
  cpu.charge(engine_.costs().copy_cost_kernel(size));
  submit_op(s, {kCtrReadResponses}, /*count_bytes=*/true, cpu);
}

void Connection::submit_gather_response(std::uint64_t dst_base_va,
                                        std::uint64_t src_base_va,
                                        std::span<const GatherChunk> chunks,
                                        std::uint64_t req_op_id, sim::Cpu& cpu,
                                        const trace::SpanContext& parent) {
  std::vector<ScatterChunk> segs;
  std::vector<std::span<const std::byte>> data;
  segs.reserve(chunks.size());
  data.reserve(chunks.size());
  std::uint32_t total = 0;
  for (const GatherChunk& c : chunks) {
    segs.push_back(ScatterChunk{c.local_offset, c.length});
    data.push_back(engine_.memory().view(src_base_va + c.remote_offset,
                                         c.length));
    total += c.length;
  }
  const std::vector<std::byte> encoded = encode_scatter_payload(
      segs, std::span<const std::span<const std::byte>>(data));

  // Like read responses, gather responses carry no fences of their own.
  SubmitSpec s;
  s.frame_kind = FrameKind::kData;
  s.op_type = OpType::kGatherResp;
  s.op_kind = OpKind::kWrite;
  s.remote_va = dst_base_va;
  s.aux_va = req_op_id;
  s.data = encoded;
  s.wire_size = s.op_bytes = static_cast<std::uint32_t>(encoded.size());
  s.use_fence_dep = false;
  s.record_submit = false;
  s.parent = &parent;
  cpu.charge(engine_.costs().copy_cost_kernel(total));
  submit_op(s, {kCtrGatherResponses}, /*count_bytes=*/true, cpu);
}

std::size_t Connection::pick_link() {
  const auto& cfg = engine_.config();
  switch (cfg.striping) {
    case StripingPolicy::kRoundRobin:
      return rr_next_link_;
    case StripingPolicy::kRandom:
      return static_cast<std::size_t>(engine_.rng().next_below(links_.size()));
    case StripingPolicy::kShortestQueue: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < links_.size(); ++i) {
        if (links_[i].nic->tx_space() > links_[best].nic->tx_space()) best = i;
      }
      return best;
    }
  }
  return 0;
}

bool Connection::transmit_on_some_link(const net::MutFramePtr& frame,
                                       std::uint64_t seq, sim::Cpu& cpu,
                                       bool retx) {
  const std::size_t start = pick_link();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const std::size_t li = (start + i) % links_.size();
    Link& link = links_[li];
    frame->src = link.nic->mac();
    frame->dst = link.peer_mac;
    patch_ack(frame->payload, rcv_nxt_);
    if (link.nic->tx(frame)) {
      rr_next_link_ = (li + 1) % links_.size();
      cpu.charge(engine_.costs().tx_frame_cost);
      if (retx) {
        // Charge the retransmission against the rail that carries it: links
        // are attached in rail order, so link index == rail index.
        if (auto* rh = engine_.rail_health(li)) {
          rh->on_retransmit(engine_.sim().now());
        }
      }
      counters_.add(kCtrDataFramesSent);
      counters_.add(kCtrDataBytesSent, frame->payload.size());
      if (auto* t = engine_.tracer()) {
        t->record(engine_.sim().now(), trace::EventType::kDataTx,
                  engine_.node_id(), static_cast<int>(li),
                  static_cast<int>(local_id_), seq, frame->payload.size());
      }
      return true;
    }
  }
  return false;
}

void Connection::try_transmit(sim::Cpu& cpu) {
  if (state_ != ConnState::kEstablished) {
    if (has_backlog()) engine_.note_backlog(this);
    return;
  }
  bool sent_any = false;

  // Retransmissions first: they are already inside the window and unblock
  // the receiver. The retained frame is patched and re-sent in place when we
  // hold its only reference (the earlier transmission fully drained);
  // otherwise a pooled clone goes out, so in-flight frames are never mutated.
  while (!retx_queue_.empty()) {
    const std::uint64_t seq = retx_queue_.front();
    if (seq < snd_una_) {
      // Acknowledged while queued: obsolete.
      retx_queued_seqs_.erase(seq);
      retx_queue_.pop_front();
      continue;
    }
    net::MutFramePtr& retained = unacked_[seq & seq_mask_];
    net::MutFramePtr frame = retained.use_count() == 1
                                 ? retained
                                 : net::frame_pool().clone(*retained);
    if (!transmit_on_some_link(frame, seq, cpu, /*retx=*/true)) break;
    counters_.add(kCtrRetransmissions);
    if (auto* t = engine_.tracer()) {
      t->record(engine_.sim().now(), trace::EventType::kRetransmit,
                engine_.node_id(), -1, static_cast<int>(local_id_), seq);
    }
    if (auto* ck = engine_.checker()) {
      ck->on_frame_sent(*this, seq, frames_in_flight(),
                        engine_.config().window_frames);
    }
    retx_queued_seqs_.erase(seq);
    retx_queue_.pop_front();
    sent_any = true;
  }

  // New frames, subject to the sliding window AND the submission barrier:
  // frames of ops still sitting in the submission ring (seq >= barrier) are
  // not visible to the protocol until their doorbell rings. Without
  // batch_submission the barrier always equals next_seq_ and never gates.
  while (retx_queue_.empty() && !pending_.empty() &&
         pending_.front().seq < submit_barrier_) {
    OutFrame& of = pending_.front();
    if (of.seq >= snd_una_ + engine_.config().window_frames) {
      counters_.add(kCtrWindowStalls);
      if (!window_stalled_) {
        window_stalled_ = true;
        if (auto* t = engine_.tracer()) {
          t->record(engine_.sim().now(), trace::EventType::kWindowStall,
                    engine_.node_id(), -1, static_cast<int>(local_id_),
                    snd_una_);
        }
      }
      break;
    }
    if (!transmit_on_some_link(of.frame, of.seq, cpu)) break;
    if (window_stalled_) {
      window_stalled_ = false;
      if (auto* t = engine_.tracer()) {
        t->record(engine_.sim().now(), trace::EventType::kWindowResume,
                  engine_.node_id(), -1, static_cast<int>(local_id_),
                  snd_una_);
      }
    }
    unacked_[of.seq & seq_mask_] = std::move(of.frame);
    snd_tx_next_ = of.seq + 1;
    if (auto* ck = engine_.checker()) {
      ck->on_frame_sent(*this, of.seq, frames_in_flight(),
                        engine_.config().window_frames);
    }
    pending_.pop_front();
    sent_any = true;
  }

  if (sent_any) {
    // Outgoing data piggy-backed our cumulative ack: delayed-ack state resets.
    rx_since_ack_ = 0;
    ack_timer_.cancel();
    retransmit_timer_.schedule_if_idle(engine_.config().retransmit_timeout);
  }
  if (has_backlog()) engine_.note_backlog(this);
}

void Connection::process_ack(std::uint64_t ack, sim::Cpu& cpu) {
  if (auto* ck = engine_.checker()) ck->on_ack_received(*this, ack);
  if (ack <= snd_una_) return;
  for (std::uint64_t s = snd_una_, hi = std::min(ack, snd_tx_next_); s < hi;
       ++s) {
    unacked_[s & seq_mask_].reset();  // frame storage returns to the pool
  }
  snd_una_ = ack;  // obsolete retx entries are skipped in try_transmit()
  if (snd_tx_next_ < snd_una_) snd_tx_next_ = snd_una_;
  complete_acked_ops(cpu);
  if (frames_in_flight() == 0 && retx_queue_.empty()) {
    retransmit_timer_.cancel();
  } else {
    retransmit_timer_.schedule(engine_.config().retransmit_timeout);
  }
  try_transmit(cpu);
}

void Connection::complete_acked_ops(sim::Cpu& cpu) {
  (void)cpu;
  while (!write_ops_.empty() && write_ops_.front()->last_seq < snd_una_) {
    SendOpPtr op = std::move(write_ops_.front());
    write_ops_.pop_front();
    op->complete = true;
    op->progress_bytes = op->size;
    counters_.add(kCtrOpsCompleted);
    if (auto* t = engine_.tracer()) {
      t->record_span(op->submitted_at,
                     engine_.sim().now() - op->submitted_at,
                     trace::EventType::kOpComplete, engine_.node_id(), -1,
                     static_cast<int>(local_id_), op->op_id, op->size,
                     op->ctx, op->parent_span);
    }
    op->waiters.notify_all();
    engine_.notify_events().notify_all();
    if (op->on_complete) op->on_complete();
  }
  // The (new) front op may be partially acknowledged: update its progress.
  if (!write_ops_.empty()) {
    SendOp& front = *write_ops_.front();
    if (snd_una_ > front.first_seq) {
      const std::uint64_t frames_acked = snd_una_ - front.first_seq;
      front.progress_bytes = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          front.size, frames_acked * WireHeader::kMaxData));
    }
  }
}

void Connection::handle_ack_frame(const DecodedFrame& df, sim::Cpu& cpu) {
  counters_.add(kCtrAckFramesRcvd);
  if (auto* t = engine_.tracer()) {
    t->record(engine_.sim().now(), trace::EventType::kAckRx, engine_.node_id(),
              -1, static_cast<int>(local_id_), df.hdr.ack, df.nacks.size());
  }
  process_ack(df.hdr.ack, cpu);
  if (!df.nacks.empty()) {
    counters_.add(kCtrNacksRcvd, df.nacks.size());
    for (std::uint64_t seq : df.nacks) {
      if (seq < snd_una_ || seq >= snd_tx_next_) {
        continue;  // already acked or retransmitted+acked
      }
      if (retx_queued_seqs_.insert(seq)) retx_queue_.push_back(seq);
    }
    try_transmit(cpu);
  }
}

void Connection::on_retransmit_timeout(sim::Cpu& cpu) {
  if (frames_in_flight() == 0) return;
  // §2.4: retransmit the *last transmitted* frame. The duplicate prods the
  // receiver into re-acking (and NACKing every gap it still sees).
  const std::uint64_t last = snd_tx_next_ - 1;
  counters_.add(kCtrRtoEvents);
  if (retx_queued_seqs_.insert(last)) retx_queue_.push_back(last);
  retransmit_timer_.schedule(engine_.config().retransmit_timeout);
  try_transmit(cpu);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Connection::handle_data_frame(net::FramePtr frame, const DecodedFrame& df,
                                   sim::Cpu& cpu) {
  const WireHeader& h = df.hdr;
  counters_.add(kCtrDataFramesRcvd);
  counters_.add(kCtrDataBytesRcvd, frame->payload.size());
  if (auto* t = engine_.tracer()) {
    t->record(engine_.sim().now(), trace::EventType::kDataRx,
              engine_.node_id(), -1, static_cast<int>(local_id_), h.seq,
              frame->payload.size());
  }

  const std::uint64_t seq = h.seq;
  const bool in_order_mode = engine_.config().in_order_delivery;

  // Duplicate detection.
  bool duplicate = seq < rcv_nxt_;
  if (!duplicate && seq > rcv_nxt_) {
    duplicate = in_order_mode ? ooo_buffer_.contains(seq)
                              : rcvd_above_.contains(seq);
  }
  if (duplicate) {
    on_duplicate(seq, cpu);
    return;
  }

  BufferedFrag frag{std::move(frame), h, df.data};

  if (seq > rcv_nxt_) {
    counters_.add(kCtrOooFramesRcvd);
    // Every seq in [rcv_nxt_, rx_frontier_) is either accepted or already a
    // known gap, so only [rx_frontier_, seq) opens new gaps.
    for (std::uint64_t m = std::max(rcv_nxt_, rx_frontier_); m < seq; ++m) {
      gaps_.emplace(m, Gap{engine_.sim().now(), 0, false, 0});
    }
  }
  gaps_.erase(seq);
  rx_frontier_ = std::max(rx_frontier_, seq + 1);
  if (auto* ck = engine_.checker()) ck->on_seq_accepted(*this, seq);

  if (in_order_mode) {
    if (seq == rcv_nxt_) {
      ++rcv_nxt_;
      apply_or_block(std::move(frag), cpu);
      // Drain now-contiguous buffered frames.
      for (BufferedFrag* bp = ooo_buffer_.find(rcv_nxt_); bp != nullptr;
           bp = ooo_buffer_.find(rcv_nxt_)) {
        BufferedFrag next = std::move(*bp);
        ooo_buffer_.erase(rcv_nxt_);
        ++rcv_nxt_;
        apply_or_block(std::move(next), cpu);
      }
    } else {
      counters_.add(kCtrFramesBuffered);
      ooo_buffer_.emplace(seq, std::move(frag));
    }
  } else {
    if (seq == rcv_nxt_) {
      ++rcv_nxt_;
      while (rcvd_above_.erase(rcv_nxt_)) ++rcv_nxt_;
    } else {
      rcvd_above_.insert(seq);
    }
    // Out-of-order mode applies immediately (§2.5), fences permitting.
    apply_or_block(std::move(frag), cpu);
  }

  if (auto* ck = engine_.checker()) ck->on_rcv_frontier(*this, rcv_nxt_);
  // Selective signaling: a signaled frame asks for prompt cumulative ack
  // (which also covers every unsignaled predecessor). Only ever set when the
  // sender runs with signal_interval > 1.
  if (h.op_flags & kOpFlagSignaled) signaled_since_ack_ = true;
  after_new_data_frame(cpu);
}

void Connection::after_new_data_frame(sim::Cpu& cpu) {
  note_gap_progress();
  const auto& cfg = engine_.config();

  // NACK any gaps that crossed their thresholds.
  bool nacks_due = false;
  if (!gaps_.empty()) {
    const sim::Time now = engine_.sim().now();
    for (std::uint64_t m = rcv_nxt_; m < rx_frontier_ && !nacks_due; ++m) {
      const Gap* gap = gaps_.find(m);
      if (gap != nullptr && !gap->nacked &&
          (gap->frames_since >= cfg.nack_frame_threshold ||
           now - gap->first_seen >= cfg.nack_timeout)) {
        nacks_due = true;
      }
    }
    nack_timer_.schedule_if_idle(cfg.nack_timeout);
  }

  ++rx_since_ack_;
  bool ack_now = nacks_due;
  if (cfg.signal_interval > 1) {
    // Selective signaling: hold the frame-count ack until a signaled frame
    // arrived (cumulative acks then cover its unsignaled prefix), but never
    // let silence approach a window stall at the sender — the hard cap acks
    // a long unsignaled run regardless.
    const std::uint32_t cap = std::max<std::uint32_t>(
        cfg.ack_threshold,
        static_cast<std::uint32_t>(cfg.window_frames) * 3 / 4);
    ack_now = ack_now ||
              (signaled_since_ack_ && rx_since_ack_ >= cfg.ack_threshold) ||
              rx_since_ack_ >= cap;
  } else {
    ack_now = ack_now || rx_since_ack_ >= cfg.ack_threshold;
  }
  if (ack_now) {
    send_explicit_ack(cpu);
  } else {
    ack_timer_.schedule_if_idle(cfg.ack_timeout);
  }
}

void Connection::note_gap_progress() {
  if (gaps_.empty()) return;
  std::size_t remaining = gaps_.size();
  for (std::uint64_t m = rcv_nxt_; m < rx_frontier_ && remaining > 0; ++m) {
    if (Gap* gap = gaps_.find(m)) {
      ++gap->frames_since;
      --remaining;
    }
  }
}

void Connection::on_duplicate(std::uint64_t seq, sim::Cpu& cpu) {
  (void)seq;
  counters_.add(kCtrDuplicatesDiscarded);
  // A duplicate means the sender is retransmitting: our ACKs (or its data)
  // were lost. Re-ack immediately. Gap reporting stays on its normal
  // schedule — forcing NACKs here would re-request frames that are merely
  // still in flight and feed a retransmission storm.
  send_explicit_ack(cpu, /*force_nacks=*/false);
}

const std::vector<std::uint64_t>& Connection::collect_due_nacks(bool force_all) {
  const auto& cfg = engine_.config();
  const sim::Time now = engine_.sim().now();
  std::vector<std::uint64_t>& due = nack_scratch_;
  due.clear();
  if (gaps_.empty()) return due;
  std::size_t remaining = gaps_.size();
  for (std::uint64_t m = rcv_nxt_; m < rx_frontier_ && remaining > 0; ++m) {
    Gap* gap = gaps_.find(m);
    if (gap == nullptr) continue;
    --remaining;
    if (due.size() >= WireHeader::kMaxNacks) break;
    const bool fresh_due = !gap->nacked &&
                           (gap->frames_since >= cfg.nack_frame_threshold ||
                            now - gap->first_seen >= cfg.nack_timeout);
    const bool renack_due =
        gap->nacked && now - gap->nacked_at >= cfg.renack_timeout;
    if (force_all || fresh_due || renack_due) {
      due.push_back(m);
      gap->nacked = true;
      gap->nacked_at = now;
    }
  }
  return due;
}

void Connection::send_explicit_ack(sim::Cpu& cpu, bool force_nacks) {
  if (state_ != ConnState::kEstablished) return;
  const std::vector<std::uint64_t>& nacks = collect_due_nacks(force_nacks);

  WireHeader h;
  h.kind = FrameKind::kAck;
  h.conn_id = remote_id_;
  h.src_node = static_cast<std::uint16_t>(engine_.node_id());
  h.ack = rcv_nxt_;

  auto frame = net::frame_pool().acquire();
  encode_frame_payload_into(
      frame->payload, h,
      std::span<const std::uint64_t>(nacks.data(), nacks.size()), {});
  cpu.charge(engine_.costs().ack_build_cost);

  const std::size_t start = pick_link();
  bool sent = false;
  for (std::size_t i = 0; i < links_.size() && !sent; ++i) {
    const std::size_t li = (start + i) % links_.size();
    frame->src = links_[li].nic->mac();
    frame->dst = links_[li].peer_mac;
    if (links_[li].nic->tx(frame)) {
      rr_next_link_ = (li + 1) % links_.size();
      cpu.charge(engine_.costs().tx_frame_cost);
      sent = true;
    }
  }
  if (!sent) {
    // ACKs are unsequenced and unreliable; timers will recover.
    counters_.add(kCtrAckSendFailed);
    return;
  }
  counters_.add(kCtrAckFramesSent);
  if (!nacks.empty()) counters_.add(kCtrNacksSent, nacks.size());
  if (auto* t = engine_.tracer()) {
    t->record(engine_.sim().now(), trace::EventType::kAckTx, engine_.node_id(),
              -1, static_cast<int>(local_id_), rcv_nxt_, nacks.size());
  }
  rx_since_ack_ = 0;
  signaled_since_ack_ = false;
  ack_on_idle_ = false;
  ack_timer_.cancel();
}

void Connection::solicit_ack_at_idle() {
  if (!wants_idle_ack()) return;
  const sim::Time delay = engine_.config().solicited_ack_delay;
  if (!ack_timer_.pending() ||
      ack_timer_.deadline() > engine_.sim().now() + delay) {
    ack_timer_.schedule(delay);
  }
  ack_on_idle_ = false;  // re-armed by the next completion
}

void Connection::on_ack_timeout(sim::Cpu& cpu) {
  if (rx_since_ack_ > 0 || !gaps_.empty()) send_explicit_ack(cpu);
}

void Connection::on_nack_timeout(sim::Cpu& cpu) {
  if (!gaps_.empty()) {
    send_explicit_ack(cpu);
    nack_timer_.schedule(engine_.config().nack_timeout);
  }
}

// ---------------------------------------------------------------------------
// Fence/reorder engine
// ---------------------------------------------------------------------------

Connection::RecvOp& Connection::recv_op_for(const WireHeader& hdr,
                                            const net::Frame& frame) {
  if (RecvOp* existing = recv_ops_.find(hdr.op_id)) return *existing;
  RecvOp op;
  op.op_id = hdr.op_id;
  op.flags = hdr.op_flags;
  op.ffence_dep = hdr.ffence_dep;
  op.size = hdr.op_size;
  op.first_frag_at = engine_.sim().now();
  if (frame.trace_id != 0) {
    // The initiator traced this op: open a receiver-side span under the same
    // trace, parented on the initiator's op span carried by the frame.
    op.sender_span = frame.span_id;
    if (auto* t = engine_.tracer()) {
      op.ctx = trace::SpanContext{frame.trace_id, t->new_span_id()};
    }
  }
  if (hdr.kind == FrameKind::kReadReq) {
    op.is_read_req = true;
    op.read_src_va = hdr.remote_va;
    op.read_dst_va = hdr.aux_va;
    op.read_req_op = hdr.op_id;
    if (hdr.op_type == OpType::kGatherRead) {
      // The request carries a segment descriptor to reassemble before the
      // read can be served (op_size is the descriptor length).
      op.is_gather_req = true;
      op.assembly.resize(hdr.op_size);
    }
  } else {
    op.write_va = hdr.remote_va;
    if (hdr.op_type == OpType::kReadResp) {
      op.is_read_resp = true;
      op.read_req_op = hdr.aux_va;  // initiator op id echoed by the target
    } else if (hdr.op_type == OpType::kGatherResp) {
      // A gather response is a scatter payload that, once applied relative
      // to our local base, completes the pending gather read.
      op.is_read_resp = true;
      op.is_scatter = true;
      op.read_req_op = hdr.aux_va;
      op.assembly.resize(hdr.op_size);
    } else if (hdr.op_type == OpType::kScatterWrite) {
      op.is_scatter = true;
      op.assembly.resize(hdr.op_size);
    }
  }
  return recv_ops_.emplace(hdr.op_id, std::move(op));
}

bool Connection::recv_op_completed(std::uint64_t op_id) const {
  return op_id < recv_completed_below_ || recv_completed_above_.count(op_id) > 0;
}

bool Connection::fences_satisfied(const RecvOp& op) const {
  if ((op.flags & kOpFlagBackwardFence) && recv_completed_below_ < op.op_id) {
    return false;
  }
  if (op.ffence_dep != kNoFenceDep && !recv_op_completed(op.ffence_dep)) {
    return false;
  }
  return true;
}

void Connection::apply_or_block(BufferedFrag frag, sim::Cpu& cpu) {
  RecvOp& op = recv_op_for(frag.hdr, *frag.frame);
  if (fences_satisfied(op)) {
    apply_frag(op, frag, cpu);
    maybe_complete(op, cpu);
  } else {
    counters_.add(kCtrFenceBlockedFrames);
    if (auto* t = engine_.tracer()) {
      t->record(engine_.sim().now(), trace::EventType::kFenceBlocked,
                engine_.node_id(), -1, static_cast<int>(local_id_), op.op_id);
    }
    op.blocked.push_back(std::move(frag));
  }
}

void Connection::apply_frag(RecvOp& op, const BufferedFrag& frag, sim::Cpu& cpu) {
  if (auto* ck = engine_.checker()) {
    ck->on_frag_applied(*this, op.op_id, op.flags, op.ffence_dep,
                        frag.hdr.frag_offset,
                        static_cast<std::uint32_t>(frag.data.size()));
  }
  if (op.is_read_req && !op.is_gather_req) return;  // served in maybe_complete
  (void)cpu;
  if (op.is_gather_req) {
    // Reassemble the request descriptor; the read is served at completion.
    std::copy(frag.data.begin(), frag.data.end(),
              op.assembly.begin() + frag.hdr.frag_offset);
    op.applied += static_cast<std::uint32_t>(frag.data.size());
    return;
  }
  if (op.is_scatter) {
    // Reassemble the scatter payload; segments apply at completion.
    std::copy(frag.data.begin(), frag.data.end(),
              op.assembly.begin() + frag.hdr.frag_offset);
  } else {
    engine_.memory().write(frag.hdr.remote_va + frag.hdr.frag_offset, frag.data);
  }
  op.applied += static_cast<std::uint32_t>(frag.data.size());
}

void Connection::maybe_complete(RecvOp& op, sim::Cpu& cpu) {
  // Plain read requests complete on their single (payload-free) frame; a
  // gather request completes only once its descriptor is fully reassembled.
  const bool done = (op.is_read_req && !op.is_gather_req) ||
                    (op.size > 0 && op.applied >= op.size);
  if (!done) return;

  const std::uint64_t op_id = op.op_id;
  if (auto* ck = engine_.checker()) ck->on_op_completed(*this, op_id);
  if (op.ctx.active()) {
    // Receiver-side op span: first fragment arrival -> op fully applied,
    // stitched under the initiator's op span via the frame-carried context.
    if (auto* t = engine_.tracer()) {
      t->record_span(op.first_frag_at, engine_.sim().now() - op.first_frag_at,
                     trace::EventType::kOpRecv, engine_.node_id(), -1,
                     static_cast<int>(local_id_), op_id, op.size, op.ctx,
                     op.sender_span);
    }
  }
  if (op.flags & kOpFlagSolicit) {
    ack_on_idle_ = true;  // ack the completed op at the next receive lull
  }
  if (op.is_scatter) {
    std::vector<std::pair<std::uint32_t, std::span<const std::byte>>> segs;
    if (decode_scatter_payload(op.assembly, segs)) {
      for (const auto& [off, data] : segs) {
        engine_.memory().write(op.write_va + off, data);
        // Applying the gathered segments is an extra kernel-side copy.
        cpu.charge(engine_.costs().copy_cost_kernel(data.size()));
      }
      counters_.add(kCtrScatterOpsApplied);
    } else {
      counters_.add(kCtrScatterDecodeFailed);
    }
  }
  if (op.is_read_req) {
    if (op.is_gather_req) {
      // "Performing" a gather read: serve every described segment in one
      // response message.
      std::vector<GatherChunk> chunks;
      if (decode_gather_request(op.assembly, chunks)) {
        submit_gather_response(op.read_dst_va, op.read_src_va, chunks,
                               op.read_req_op, cpu, op.ctx);
        counters_.add(kCtrGatherReadsServed);
      } else {
        counters_.add(kCtrGatherDecodeFailed);
      }
    } else {
      // "Performing" a remote read: generate the response data stream.
      submit_read_response(op.read_dst_va, op.read_src_va, op.size,
                           op.read_req_op, cpu, op.ctx);
    }
  } else if (op.is_read_resp) {
    // Response fully applied at the initiator: finish the pending read.
    if (SendOpPtr* slot = pending_reads_.find(op.read_req_op)) {
      SendOpPtr rop = std::move(*slot);
      pending_reads_.erase(op.read_req_op);
      rop->complete = true;
      counters_.add(kCtrReadsCompleted);
      if (auto* t = engine_.tracer()) {
        t->record_span(rop->submitted_at,
                       engine_.sim().now() - rop->submitted_at,
                       trace::EventType::kOpComplete, engine_.node_id(), -1,
                       static_cast<int>(local_id_), rop->op_id, rop->size,
                       rop->ctx, rop->parent_span);
      }
      rop->waiters.notify_all();
      engine_.notify_events().notify_all();
      if (rop->on_complete) rop->on_complete();
    }
  } else if (op.flags & kOpFlagNotify) {
    // The notification carries the receiver-side span so RPC-style handlers
    // (KV server, membership, collectives) parent their spans under it.
    engine_.deliver_notification(
        Notification{peer_node_, op_id, op.write_va, op.size,
                     op_flags_tag(op.flags), op.ctx},
        cpu, /*urgent=*/(op.flags & kOpFlagUrgent) != 0);
  }

  // Advance the completion frontier.
  if (op_id == recv_completed_below_) {
    ++recv_completed_below_;
    while (recv_completed_above_.erase(recv_completed_below_)) {
      ++recv_completed_below_;
    }
  } else {
    recv_completed_above_.insert(op_id);
  }
  recv_ops_.erase(op_id);  // `op` dangles from here on
  unblock_ops(cpu);
}

void Connection::unblock_ops(sim::Cpu& cpu) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < recv_ops_.size(); ++i) {
      RecvOp& op = recv_ops_[i].second;
      if (!op.blocked.empty() && fences_satisfied(op)) {
        std::vector<BufferedFrag> frags = std::move(op.blocked);
        op.blocked.clear();
        if (auto* t = engine_.tracer()) {
          t->record(engine_.sim().now(), trace::EventType::kFenceRelease,
                    engine_.node_id(), -1, static_cast<int>(local_id_),
                    op.op_id, frags.size());
        }
        for (const auto& fr : frags) apply_frag(op, fr, cpu);
        maybe_complete(op, cpu);  // may erase `op` and recurse
        progress = true;
        break;  // container mutated: restart the scan
      }
    }
  }
}

}  // namespace multiedge::proto
