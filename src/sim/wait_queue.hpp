// FIFO wait queue for processes — the building block for condition-style
// blocking (DSM locks, barriers, completion waits).
//
// Wakeups follow the Mesa discipline: wait() can return before the condition
// the caller is interested in holds, so callers loop:
//
//   while (!cond) queue.wait();
//
// The queue is intrusive: a doubly linked list threaded through the waiting
// Processes' own link fields. A process blocks in at most one queue at a
// time (suspend() parks its fiber), so one set of links per process is
// enough, and waiting, notifying and constructing a queue allocate nothing.
#pragma once

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
  bool wait_until(Time deadline);

  /// Wake the oldest waiter, if any.
  void notify_one();

  /// Wake all current waiters.
  void notify_all();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  void push_back(Process* p);
  void unlink(Process* p);

  Process* head_ = nullptr;
  Process* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace multiedge::sim
