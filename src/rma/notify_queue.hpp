// Matching queue for notified one-sided access (DESIGN.md §17).
//
// A notified put lands in the target's memory and leaves one Notification in
// the target engine's queue. The NotifyQueue is the receive-side matcher: a
// waiter asks for "the next notified access from `src` at address `va`" and
// either consumes a queued match or blocks. Matching rules:
//
//  * tag      — fixed per queue (the window's demultiplexing tag). Other
//               tags' notifications are never touched.
//  * src      — kAnySrc matches any initiating node.
//  * va       — kAnyVa matches any target address. Windows that pack many
//               logical channels into one region (e.g. coll's per-rank slot
//               array) match on the exact slot address.
//
// Non-blocking probes (test) match directly against the engine's queue via
// Endpoint::poll_notification_match — mismatches stay queued, in arrival
// order, for whoever they belong to. The blocking path (wait) consumes in
// per-tag arrival order and stashes mismatches locally: this mirrors the
// syscall-per-pop cost model of a raw wait_notification loop, so rebasing a
// consumer onto the queue is time- and fingerprint-identical to the
// hand-rolled stash idiom it replaces (see tests/rma_test.cpp differentials).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "core/api.hpp"
#include "stats/counters.hpp"

namespace multiedge::rma {

inline constexpr int kAnySrc = -1;
inline constexpr std::uint64_t kAnyVa = proto::Engine::kAnyNotifyVa;

/// One matched notified access, as handed to the waiter.
struct NotifyEvent {
  int src = -1;             ///< initiating node
  std::uint64_t va = 0;     ///< target-side address the payload landed at
  std::uint32_t bytes = 0;  ///< payload count carried by the notification
  std::uint64_t op_id = 0;  ///< initiator-side op id (debugging / dedup)
  trace::SpanContext ctx;   ///< initiator's span (for stitching handlers)
};

class NotifyQueue {
 public:
  NotifyQueue(Endpoint& ep, int tag, stats::Counters& counters,
              stats::CounterId ctr_matched, stats::CounterId ctr_queued)
      : ep_(ep),
        tag_(tag),
        counters_(counters),
        ctr_matched_(ctr_matched),
        ctr_queued_(ctr_queued) {}

  /// Non-blocking probe: true and fills `*out` if a matching notified access
  /// is available (stashed or still queued in the engine).
  bool test(NotifyEvent* out, int src = kAnySrc, std::uint64_t va = kAnyVa) {
    if (take_stashed(out, src, va)) return true;
    Notification n;
    if (ep_.poll_notification_match(&n, tag_, src, va)) {
      counters_.add(ctr_matched_);
      *out = to_event(n);
      return true;
    }
    return false;
  }

  /// Block the calling fiber until a matching notified access arrives.
  /// Consumes this tag's notifications in arrival order; mismatches are
  /// stashed for later matches (they are someone else's, on this queue).
  /// `failed`, if set, is a fail-fast test: the wait's predicate checks it
  /// whenever this tag's queue is empty, so it must be pure (DESIGN.md §4).
  /// Once it holds with nothing queued, the wait calls `on_failure` in the
  /// waiting fiber, which must throw to abandon the wait. Without `failed`
  /// the wait is exactly the plain wait_notification loop.
  NotifyEvent wait(int src = kAnySrc, std::uint64_t va = kAnyVa,
                   const std::function<bool()>& failed = {},
                   const std::function<void()>& on_failure = {}) {
    NotifyEvent ev;
    if (take_stashed(&ev, src, va)) return ev;
    const proto::Engine& eng = ep_.engine();
    for (;;) {
      if (failed) {
        ep_.wait_until([&] { return eng.has_notification(tag_) || failed(); });
        if (!eng.has_notification(tag_)) on_failure();
      }
      Notification n = ep_.wait_notification(tag_);
      if (matches(n, src, va)) {
        counters_.add(ctr_matched_);
        return to_event(n);
      }
      counters_.add(ctr_queued_);
      stash_.push_back(n);
    }
  }

  int tag() const { return tag_; }
  std::size_t stashed() const { return stash_.size(); }

 private:
  static bool matches(const Notification& n, int src, std::uint64_t va) {
    return (src == kAnySrc || n.src_node == src) &&
           (va == kAnyVa || n.va == va);
  }
  static NotifyEvent to_event(const Notification& n) {
    return NotifyEvent{n.src_node, n.va, n.size, n.op_id, n.ctx};
  }
  bool take_stashed(NotifyEvent* out, int src, std::uint64_t va) {
    for (auto it = stash_.begin(); it != stash_.end(); ++it) {
      if (matches(*it, src, va)) {
        counters_.add(ctr_matched_);
        *out = to_event(*it);
        stash_.erase(it);
        return true;
      }
    }
    return false;
  }

  Endpoint& ep_;
  int tag_;
  stats::Counters& counters_;
  stats::CounterId ctr_matched_;
  stats::CounterId ctr_queued_;
  std::deque<Notification> stash_;
};

}  // namespace multiedge::rma
