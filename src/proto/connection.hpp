// Protocol-level connection endpoint: one end of a MultiEdge connection.
//
// Owns both directions' state for this end:
//  * send side — operation fragmentation, fixed-size sliding window over
//    frame sequence numbers, retained frames for retransmission, the coarse
//    retransmission timer, and the multi-link striping scheduler (§2.4-2.5);
//  * receive side — cumulative-ACK tracking, duplicate and gap detection
//    feeding delayed/explicit ACKs and NACKs, and the reorder/fence engine
//    that applies fragments to user memory either strictly in frame order
//    (2L mode) or as they arrive subject to fence constraints (2Lu mode).
//
// Window state lives in flat rings indexed by `seq & mask` (see
// seq_ring.hpp): the window size is fixed at construction (§2.4), every live
// sequence number sits within one window of the respective frontier, and a
// bit_ceil(window)-slot ring gives O(1) allocation-free lookups where this
// class previously paid std::map node churn per frame. Frames themselves are
// recycled through net::FramePool and retransmissions patch the retained
// frame in place when no earlier transmission still references it.
//
// Cost accounting: methods that consume CPU take the Cpu to charge, because
// the same code runs in syscall context (application CPU) and in the
// protocol-thread context (protocol CPU).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "net/nic.hpp"
#include "proto/config.hpp"
#include "proto/seq_ring.hpp"
#include "proto/types.hpp"
#include "proto/wire.hpp"
#include "sim/cpu.hpp"
#include "sim/random.hpp"
#include "sim/timer.hpp"
#include "stats/counters.hpp"

namespace multiedge::proto {

class Engine;

enum class ConnState : std::uint8_t {
  kSynSent,      // initiator waiting for SYN-ACK
  kEstablished,
};

class Connection {
 public:
  /// One physical path of the connection: a local NIC and the peer's MAC
  /// address on the same rail.
  struct Link {
    net::Nic* nic = nullptr;
    net::MacAddr peer_mac;
  };

  Connection(Engine& engine, std::uint32_t local_id, int peer_node,
             std::vector<Link> links, bool initiator);

  // --- identity ---
  std::uint32_t local_id() const { return local_id_; }
  std::uint32_t remote_id() const { return remote_id_; }
  void set_remote_id(std::uint32_t id) { remote_id_ = id; }
  int peer_node() const { return peer_node_; }
  bool initiator() const { return initiator_; }
  ConnState state() const { return state_; }
  void set_state(ConnState s) { state_ = s; }
  std::size_t num_links() const { return links_.size(); }

  // --- send path ---

  /// Fragment and queue a remote write; attempts immediate transmission.
  /// `cpu` is charged per transmitted frame.
  SendOpPtr submit_write(std::uint64_t remote_va, std::span<const std::byte> data,
                         std::uint16_t flags, sim::Cpu& cpu);

  /// Queue a scatter write: `encoded` is a scatter payload (see
  /// encode_scatter_payload) applied relative to `remote_base_va` when the
  /// operation completes at the receiver.
  SendOpPtr submit_scatter_write(std::uint64_t remote_base_va,
                                 std::span<const std::byte> encoded,
                                 std::uint16_t flags, sim::Cpu& cpu);

  /// Queue a remote read request. Completes when all response data has been
  /// applied to local memory at `local_va`.
  SendOpPtr submit_read(std::uint64_t local_va, std::uint64_t remote_va,
                        std::uint32_t size, std::uint16_t flags, sim::Cpu& cpu);

  /// Queue a gather read: `encoded` is a gather request descriptor (see
  /// encode_gather_request) whose segments the target serves relative to
  /// `remote_base_va` in one kGatherResp message, applied here relative to
  /// `local_base_va`. `total_bytes` is the sum of segment lengths.
  SendOpPtr submit_gather_read(std::uint64_t local_base_va,
                               std::uint64_t remote_base_va,
                               std::span<const std::byte> encoded,
                               std::uint32_t total_bytes, std::uint16_t flags,
                               sim::Cpu& cpu);

  /// Transmit queued frames while the window and NIC rings allow.
  void try_transmit(sim::Cpu& cpu);

  /// Ring the submission-ring doorbell (DESIGN.md §15): release every frame
  /// appended since the last doorbell for transmission, charge the
  /// per-descriptor drain cost, and transmit what window/NIC rings allow.
  /// No-op when the ring is empty. The syscall part of the doorbell is
  /// charged by the user-level library (Endpoint/Connection::flush), not
  /// here, so protocol-context flushes (engine idle sweep) stay free of a
  /// kernel entry they would not pay in reality.
  void flush(sim::Cpu& cpu) { ring_doorbell(cpu, /*charge_syscall=*/false); }

  /// Descriptors appended and not yet doorbelled (submission-ring occupancy;
  /// sampled by the submit_ring time series). Always 0 without batching.
  std::uint32_t submit_ring_depth() const { return ring_depth_; }

  /// One past the highest sequence released for transmission by a doorbell.
  /// Checker rule D: no data frame is ever transmitted at or above this
  /// barrier. Without batching every submit advances it to snd_nxt, so the
  /// barrier never blocks.
  std::uint64_t submit_barrier() const { return submit_barrier_; }

  /// True when a submit carrying `flags` will be held in the submission ring
  /// (its kernel entry deferred to the next doorbell) instead of doorbelled
  /// eagerly. The user-level library charges syscall_cost only for eager
  /// submits.
  bool will_batch(std::uint16_t flags) const;

  /// True if frames are waiting for window or ring space. Frames above the
  /// submission barrier are not backlog: they are waiting for a doorbell,
  /// not for resources.
  bool has_backlog() const {
    return !retx_queue_.empty() ||
           (!pending_.empty() && pending_.front().seq < submit_barrier_);
  }

  // --- receive path (called from the protocol thread via the engine) ---

  /// Process the piggy-backed cumulative ACK carried by any frame.
  void process_ack(std::uint64_t ack, sim::Cpu& cpu);

  /// Handle an explicit ACK frame (cumulative ack + NACK list).
  void handle_ack_frame(const DecodedFrame& df, sim::Cpu& cpu);

  /// Handle a sequenced data-path frame (write/read-response fragment or
  /// read request). `frame` keeps the payload alive for buffered fragments.
  void handle_data_frame(net::FramePtr frame, const DecodedFrame& df,
                         sim::Cpu& cpu);

  /// Build and send an explicit ACK now. With `force_nacks`, every open gap
  /// is reported regardless of its thresholds.
  void send_explicit_ack(sim::Cpu& cpu, bool force_nacks = false);

  /// When an operation completed here since the last ack we sent, its
  /// initiator is likely blocked on the completion: at the protocol
  /// thread's next idle point the delayed-ack timer is shortened to the
  /// solicited-ack delay, leaving a brief window for an application reply
  /// to piggy-back the acknowledgment.
  void solicit_ack_at_idle();
  bool wants_idle_ack() const {
    return state_ == ConnState::kEstablished && ack_on_idle_ &&
           rx_since_ack_ > 0;
  }

  // --- timers (wired by the engine into its CPU context) ---
  void on_retransmit_timeout(sim::Cpu& cpu);
  void on_ack_timeout(sim::Cpu& cpu);
  void on_nack_timeout(sim::Cpu& cpu);

  stats::Counters& counters() { return counters_; }
  const stats::Counters& counters() const { return counters_; }

  /// Sender-side flow-control snapshot (tests / diagnostics).
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t snd_nxt() const { return next_seq_; }
  std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  /// Transmitted-but-unacknowledged frames (always <= window_frames).
  std::size_t frames_in_flight() const {
    return static_cast<std::size_t>(snd_tx_next_ - snd_una_);
  }
  std::size_t reorder_buffer_depth() const {
    return ooo_buffer_.size() + rcvd_above_.size();
  }
  /// Submitted-but-uncompleted operations (writes awaiting acks plus reads
  /// awaiting response data) — sampled by the outstanding-ops time series.
  std::size_t outstanding_ops() const {
    return write_ops_.size() + pending_reads_.size();
  }

 private:
  friend class Engine;

  // One buffered fragment awaiting ordering/fence resolution.
  struct BufferedFrag {
    net::FramePtr frame;  // keeps payload storage alive
    WireHeader hdr;
    std::span<const std::byte> data;
  };

  // Receiver-side view of one remote operation.
  struct RecvOp {
    std::uint64_t op_id = 0;
    std::uint16_t flags = 0;
    std::uint64_t ffence_dep = kNoFenceDep;
    std::uint32_t size = 0;
    std::uint32_t applied = 0;
    // Causal context: ctx is this op's receiver-side span (allocated when
    // the first fragment arrives, if it carried a trace id), sender_span the
    // initiator-side parent carried by the frames.
    trace::SpanContext ctx;
    std::uint64_t sender_span = 0;
    sim::Time first_frag_at = 0;
    bool is_read_req = false;     // a remote-read request to serve
    bool is_read_resp = false;    // response data for one of our reads
    bool is_scatter = false;      // scatter write: assemble, apply at end
    bool is_gather_req = false;   // read request carrying a segment list
    std::vector<std::byte> assembly;  // scatter/gather payload reassembly
    std::uint64_t write_va = 0;      // destination base VA (write/response)
    std::uint64_t read_src_va = 0;   // target-side source of a read
    std::uint64_t read_dst_va = 0;   // initiator-side destination
    std::uint64_t read_req_op = 0;   // initiator's op id (echoed in response)
    std::vector<BufferedFrag> blocked;
  };

  // A sequence gap observed at the receiver.
  struct Gap {
    sim::Time first_seen = 0;
    std::uint32_t frames_since = 0;
    bool nacked = false;
    sim::Time nacked_at = 0;
  };

  // A built frame waiting for its first transmission.
  struct OutFrame {
    net::MutFramePtr frame;
    std::uint64_t seq = 0;
  };

  // Shared descriptor-build path for every submit_* entry point: op
  // construction, span adoption, selective signaling, forward-fence
  // dependency tracking, fragmentation, completion tracking, and the
  // ring-append / eager-doorbell decision all live in submit_op(); the
  // public wrappers only fill in the spec and their per-path counters.
  struct SubmitSpec {
    FrameKind frame_kind = FrameKind::kData;
    OpType op_type = OpType::kWrite;
    OpKind op_kind = OpKind::kWrite;
    std::uint64_t remote_va = 0;
    std::uint64_t aux_va = 0;
    std::span<const std::byte> data;
    std::uint32_t wire_size = 0;  // WireHeader::op_size
    std::uint32_t op_bytes = 0;   // SendOp::size (completion accounting)
    std::uint16_t flags = 0;
    bool use_fence_dep = true;    // responses carry no fences of their own
    bool track_read = false;      // pending_reads_ instead of write_ops_
    bool record_submit = true;    // responses record no kOpSubmit event
    bool allow_ring = false;      // responses (protocol context) never batch
    const trace::SpanContext* parent = nullptr;  // responses: explicit parent
  };
  SendOpPtr submit_op(const SubmitSpec& spec,
                      std::initializer_list<stats::CounterId> ctrs,
                      bool count_bytes, sim::Cpu& cpu);
  std::uint16_t apply_signaling(std::uint16_t flags);
  void ring_doorbell(sim::Cpu& cpu, bool charge_syscall);
  void fragment_op(FrameKind kind, OpType op_type, SendOp& op,
                   std::uint64_t ffence_dep, std::uint64_t remote_va,
                   std::uint64_t aux_va, std::span<const std::byte> data,
                   std::uint32_t op_size);
  // Responses adopt `parent` (the request's receiver-side span) so a remote
  // read renders as one stitched trace; passed explicitly because response
  // generation runs in protocol-thread context, not a user fiber.
  void submit_read_response(std::uint64_t dst_va, std::uint64_t src_va,
                            std::uint32_t size, std::uint64_t req_op_id,
                            sim::Cpu& cpu,
                            const trace::SpanContext& parent = {});
  void submit_gather_response(std::uint64_t dst_base_va,
                              std::uint64_t src_base_va,
                              std::span<const GatherChunk> chunks,
                              std::uint64_t req_op_id, sim::Cpu& cpu,
                              const trace::SpanContext& parent = {});
  std::size_t pick_link();
  bool transmit_on_some_link(const net::MutFramePtr& frame, std::uint64_t seq,
                             sim::Cpu& cpu, bool retx = false);
  void complete_acked_ops(sim::Cpu& cpu);

  void note_gap_progress();
  const std::vector<std::uint64_t>& collect_due_nacks(bool force_all);
  void apply_or_block(BufferedFrag frag, sim::Cpu& cpu);
  RecvOp& recv_op_for(const WireHeader& hdr, const net::Frame& frame);
  bool fences_satisfied(const RecvOp& op) const;
  bool recv_op_completed(std::uint64_t op_id) const;
  void apply_frag(RecvOp& op, const BufferedFrag& frag, sim::Cpu& cpu);
  void maybe_complete(RecvOp& op, sim::Cpu& cpu);
  void unblock_ops(sim::Cpu& cpu);
  void after_new_data_frame(sim::Cpu& cpu);
  void on_duplicate(std::uint64_t seq, sim::Cpu& cpu);

  Engine& engine_;
  std::uint32_t local_id_;
  std::uint32_t remote_id_ = 0;
  int peer_node_;
  std::vector<Link> links_;
  bool initiator_;
  ConnState state_ = ConnState::kSynSent;

  // ---- send side ----
  std::uint64_t next_seq_ = 0;     // next sequence number to assign
  std::uint64_t snd_una_ = 0;      // oldest unacknowledged sequence
  std::uint64_t snd_tx_next_ = 0;  // one past the highest transmitted seq
  std::uint64_t next_op_id_ = 0;
  std::uint64_t ffence_latest_ = kNoFenceDep;  // last forward-fenced op
  std::deque<OutFrame> pending_;  // built, not yet sent
  // Retained transmitted frames, a ring holding [snd_una_, snd_tx_next_):
  // the window bound keeps that range narrower than the ring, so slot
  // `seq & seq_mask_` is unambiguous.
  std::vector<net::MutFramePtr> unacked_;
  std::uint64_t seq_mask_ = 0;
  std::deque<std::uint64_t> retx_queue_;  // seqs awaiting retransmission
  SeqSet retx_queued_seqs_;               // dedupe for retx_queue_
  std::deque<SendOpPtr> write_ops_;                   // await ack completion
  FlatMap<std::uint64_t, SendOpPtr> pending_reads_;   // await response data
  std::size_t rr_next_link_ = 0;
  bool window_stalled_ = false;  // for stall/resume edge-trigger tracing
  bool in_backlog_ = false;      // registered in the engine's backlog list
  bool in_dirty_ring_ = false;   // registered in the engine's dirty-ring list
  // Submission ring (DESIGN.md §15): frames with seq >= submit_barrier_ are
  // built but not yet released by a doorbell; ring_depth_ counts the ops
  // appended since the last doorbell. Without batching the barrier tracks
  // next_seq_ exactly and the depth stays 0.
  std::uint64_t submit_barrier_ = 0;
  std::uint32_t ring_depth_ = 0;
  std::uint32_t unsignaled_run_ = 0;  // selective-signaling op counter
  sim::Timer retransmit_timer_;

  // ---- receive side ----
  std::uint64_t rcv_nxt_ = 0;
  std::uint64_t rx_frontier_ = 0;  // one past the highest accepted seq
  SeqMap<BufferedFrag> ooo_buffer_;  // in-order mode
  SeqSet rcvd_above_;                // out-of-order mode
  SeqMap<Gap> gaps_;                 // keys within [rcv_nxt_, rx_frontier_)
  std::uint32_t rx_since_ack_ = 0;  // data frames since we last acked
  bool ack_on_idle_ = false;        // an op completed since the last ack
  bool signaled_since_ack_ = false;  // a kOpFlagSignaled frame arrived
  std::vector<std::uint64_t> nack_scratch_;  // reused by collect_due_nacks
  sim::Timer ack_timer_;
  sim::Timer nack_timer_;

  FlatMap<std::uint64_t, RecvOp> recv_ops_;
  std::uint64_t recv_completed_below_ = 0;
  std::set<std::uint64_t> recv_completed_above_;

  stats::Counters counters_;
};

}  // namespace multiedge::proto
