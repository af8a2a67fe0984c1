// FIFO wait queue for processes — the building block for condition-style
// blocking (DSM locks, barriers, completion waits).
//
// Wakeups follow the Mesa discipline: wait() can return before the condition
// the caller is interested in holds, so callers loop:
//
//   while (!cond) queue.wait();
#pragma once

#include <deque>

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
  bool wait_until(Time deadline);

  /// Wake the oldest waiter, if any.
  void notify_one();

  /// Wake all current waiters.
  void notify_all();

  bool empty() const { return waiters_.empty(); }
  std::size_t size() const { return waiters_.size(); }

 private:
  std::deque<Process*> waiters_;
};

}  // namespace multiedge::sim
