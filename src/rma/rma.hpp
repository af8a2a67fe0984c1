// Notified-access RMA: windows, epochs, flush (DESIGN.md §17).
//
// foMPI (Gerstenberger et al., PAPERS.md) showed that three primitives —
// exposure/access epochs over registered windows, flush, and *notified
// access* (a one-sided write the target can wait on without polling) — are a
// small, reusable synchronization vocabulary that scales to hundreds of
// thousands of cores. This layer generalizes the hand-rolled urgent-notify +
// fence idioms that grew separately in the KV store (replication acks), the
// collectives (put+signal pairs) and the DSM (barrier write-notices) into
// one audited primitive set. No new wire format: every Window operation
// compiles down to the existing flag classes (kOpFlagNotify / Urgent /
// QuietNotify / BackwardFence / Batched + the 8-bit demux tag), so a
// consumer rebased onto a Window is wire- and fingerprint-identical to the
// idiom it replaces (proved by the differential tests in tests/rma_test.cpp).
//
//   Window win{ep, {.base = va, .bytes = len, .tag = 3}};
//   // producer                           // consumer
//   win.open();                           rma::NotifyEvent ev =
//   win.put(peer, dst, src, n);               win.wait_notify(src);
//   win.put_notify(peer, flag, tok, 8);   // payload of `ev.src` is visible:
//   win.close();   // rings the doorbell  // the notified put is fenced
//                  // when cfg.batched    // behind the epoch's plain puts
//
// Epoch rules (misuse throws std::logic_error):
//  * put()/get() require an open epoch; open() twice / close() without an
//    open epoch are errors.
//  * put_notify()/get_notify() work inside OR outside an epoch — a notified
//    access carries its own synchronization.
//  * close() ends the epoch and, when cfg.batched, issues the submission-
//    ring doorbell (one syscall releases the whole epoch). It does NOT wait.
//  * flush() = local + remote completion of every tracked op: in this
//    transport an op's ack arrives only after the target applied its data,
//    so waiting for local completion is remote completion. Ordering without
//    waiting is cheaper: a fenced notified put (cfg.fenced, the default)
//    publishes every earlier op on the same connection via BackwardFence.
//
// Each window op records a kRmaOp trace span; the wire op submitted under it
// parents into the span, stitching window traffic into the causal tree.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/api.hpp"
#include "rma/notify_queue.hpp"
#include "stats/counters.hpp"

namespace multiedge::rma {

struct WindowConfig {
  /// Symmetric VA of the exposed region. bytes == 0 disables range checks
  /// (for windows spanning a whole subsystem's symmetric layout).
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
  /// Notification demultiplexing tag (0..255) — the window's channel.
  int tag = 0;
  /// Notified ops ride the urgent (solicited-event) wire class: they bypass
  /// interrupt moderation and wake the target immediately.
  bool urgent = true;
  /// Notified ops ride kOpFlagQuietNotify: notify without forcing a
  /// completion signal under selective signaling (DESIGN.md §15).
  bool quiet = false;
  /// Notified ops carry kOpFlagBackwardFence: the notification is delivered
  /// only after every earlier op on the same connection has been applied —
  /// this is what makes put(); put_notify() a publication.
  bool fenced = true;
  /// Epoch ops park in the submission rings (kOpFlagBatched); close() rings
  /// the doorbell. Off: urgent/fenced ops submit eagerly as usual.
  bool batched = false;
  /// Allocate a per-source token block (8 bytes/node, symmetric — construct
  /// windows in the same order on every node). Required for get_notify.
  bool notify_tokens = false;
};

/// One registered symmetric region plus its access-epoch state, completion
/// tracking and receive-side notify matching queue.
class Window {
 public:
  /// Connection lookup, so a window can ride its consumer's existing
  /// connection cache (per-connection FIFO/fence semantics — and wire
  /// identity — depend on sharing connections with the surrounding code).
  using ConnProvider = std::function<Connection&(int peer)>;

  /// With no provider the window keeps its own lazily-connected cache.
  Window(Endpoint& ep, WindowConfig cfg, ConnProvider conns = {});

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  // --- access epochs ---
  void open();
  void close();
  bool epoch_open() const { return epoch_open_; }

  // --- one-sided access (requires an open epoch) ---
  /// Plain write: local [local_va, ..+bytes) -> peer [remote_va, ...).
  OpHandle put(int peer, std::uint64_t remote_va, std::uint64_t local_va,
               std::uint32_t bytes);
  /// Plain read: peer [remote_va, ..+bytes) -> local [local_va, ...).
  OpHandle get(int peer, std::uint64_t local_va, std::uint64_t remote_va,
               std::uint32_t bytes);

  // --- notified access (inside or outside an epoch) ---
  /// Write + notification: the payload lands at the target and one
  /// NotifyEvent {src, va, bytes} becomes matchable in the target window's
  /// queue. Fencing defaults to cfg.fenced; the overload pins it per call.
  OpHandle put_notify(int peer, std::uint64_t remote_va,
                      std::uint64_t local_va, std::uint32_t bytes);
  OpHandle put_notify(int peer, std::uint64_t remote_va,
                      std::uint64_t local_va, std::uint32_t bytes, bool fenced);
  /// Read + notification AT THE TARGET: after the read has been served, a
  /// fenced 8-byte token lands in the target's token slot for this rank
  /// (token_va(rank)), telling the passive side its region was read.
  /// Requires cfg.notify_tokens. Returns the read's handle.
  OpHandle get_notify(int peer, std::uint64_t local_va,
                      std::uint64_t remote_va, std::uint32_t bytes);

  /// Receive side: block for / probe for a matching notified access.
  /// src = kAnySrc and va = kAnyVa widen the match; once the pure test
  /// `failed` holds, `on_failure` throws to abandon the wait (see
  /// NotifyQueue::wait).
  NotifyEvent wait_notify(int src = kAnySrc, std::uint64_t va = kAnyVa,
                          const std::function<bool()>& failed = {},
                          const std::function<void()>& on_failure = {});
  bool test_notify(NotifyEvent* out, int src = kAnySrc,
                   std::uint64_t va = kAnyVa);

  /// Local + remote completion of every op issued through this window since
  /// the last flush. Implies the doorbell for batched ops.
  void flush();

  /// Target-side address get_notify tokens from `src` land at (symmetric).
  std::uint64_t token_va(int src) const;

  Endpoint& endpoint() { return ep_; }
  const WindowConfig& config() const { return cfg_; }
  /// Per-window counters: rma_epochs, rma_puts, rma_notifies_sent,
  /// rma_notifies_matched, rma_notifies_queued, rma_flushes,
  /// rma_flush_stalls, ...
  const stats::Counters& counters() const { return counters_; }
  std::size_t inflight() const { return inflight_.size(); }

 private:
  Connection& conn(int peer);
  void check_range(std::uint64_t remote_va, std::uint32_t bytes) const;
  std::uint16_t notify_flags(bool fenced) const;
  /// Submit one wire op under a fresh kRmaOp span and track its handle.
  OpHandle issue(int peer, std::uint64_t remote_va, std::uint64_t local_va,
                 std::uint32_t bytes, std::uint16_t flags, bool is_read);
  void track(const OpHandle& h);

  Endpoint& ep_;
  WindowConfig cfg_;
  ConnProvider conn_of_;
  std::vector<Connection> conns_;  // lazy cache when no provider
  stats::Counters counters_;       // declared before nq_ (referenced by it)
  NotifyQueue nq_;
  bool epoch_open_ = false;
  std::vector<OpHandle> inflight_;
  std::uint64_t tok_base_ = 0;  // per-source token slots (notify_tokens)
  std::uint64_t tok_src_ = 0;   // local scratch the token value rides from
  std::uint64_t tok_gen_ = 0;
};

}  // namespace multiedge::rma
