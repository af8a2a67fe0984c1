// FIFO wait queue for processes — the building block for condition-style
// blocking (DSM locks, barriers, completion waits).
//
// Wakeups follow the Mesa discipline: wait() can return before the condition
// the caller is interested in holds, so callers loop:
//
//   while (!cond) queue.wait();
//
// wait_until(pred, deadline) is that loop with the condition handed to the
// queue. A notify then re-checks the condition in the waiter's resume event,
// and a waiter whose condition is still false goes back to the tail of the
// queue without a switch into its fiber. The scheduling calls are the ones
// the fiber's own loop would make, in the same order, so the simulation is
// bit-identical to the loop above; only the fiber switches go away.
//
// The queue is intrusive: a doubly linked list threaded through the waiting
// Processes' own link fields. A process blocks in at most one queue at a
// time (suspend() parks its fiber), so one set of links per process is
// enough, and waiting, notifying and constructing a queue allocate nothing.
#pragma once

#include <cassert>
#include <concepts>
#include <cstddef>

#include "sim/process.hpp"

namespace multiedge::sim {

class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  /// Enqueue the current process and suspend it. Must run inside a fiber.
  void wait();

  /// wait() with an absolute deadline: returns false if `deadline` passed
  /// before a notify (the process is then no longer queued).
  bool wait_until(Time deadline) { return wait_once(deadline, {}); }

  /// Block until `pred()` holds or simulated time reaches `deadline`;
  /// returns pred()'s final value (false = timed out). `pred` is evaluated
  /// in resume events, outside the fiber: it must be pure, must not throw
  /// and must not use Process::current() (DESIGN.md §4).
  template <std::predicate Pred>
  bool wait_until(Pred& pred, Time deadline = kTimeInfinity) {
    const WaitPredicate ref = WaitPredicate::of(pred);
    while (!pred()) {
      Process* self = Process::current();
      assert(self != nullptr && "WaitQueue::wait_until() outside any process");
      if (self->sim().now() >= deadline || !wait_once(deadline, ref)) {
        return pred();
      }
    }
    return true;
  }

  /// Wake the oldest waiter, if any.
  void notify_one();

  /// Wake all current waiters.
  void notify_all();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  friend class Process;

  /// One pass of the wait loop: enqueue, suspend, return false on timeout.
  bool wait_once(Time deadline, WaitPredicate pred);
  /// From `p`'s resume event after a notify through this queue: if its
  /// predicate is still false and its deadline has not passed, do what its
  /// wait loop would do next (re-queue and block again) and return true.
  bool requeue_if_false(Process* p);
  void push_back(Process* p);
  void unlink(Process* p);

  Process* head_ = nullptr;
  Process* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace multiedge::sim
