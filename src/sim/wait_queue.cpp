#include "sim/wait_queue.hpp"

#include <cassert>

namespace multiedge::sim {

void WaitQueue::wait() { wait_until(kTimeInfinity); }

bool WaitQueue::wait_until(Time deadline) {
  Process* self = Process::current();
  assert(self != nullptr && "WaitQueue::wait() outside any process");
  push_back(self);
  const bool woken = self->suspend(deadline);
  // On a notify the notifier already unlinked us; after a timeout, or if the
  // process was woken directly via Process::wake() (not through this queue),
  // drop the stale link to keep the queue consistent.
  if (self->wq_ == this) unlink(self);
  return woken;
}

void WaitQueue::notify_one() {
  if (head_ == nullptr) return;
  Process* p = head_;
  unlink(p);
  p->wake();
}

void WaitQueue::notify_all() {
  // wake() only schedules a resume event, so no waiter runs (or re-queues)
  // before the loop ends: this wakes exactly the current waiters.
  while (head_ != nullptr) notify_one();
}

void WaitQueue::push_back(Process* p) {
  assert(p->wq_ == nullptr && "a process waits in at most one queue");
  p->wq_ = this;
  p->wq_prev_ = tail_;
  p->wq_next_ = nullptr;
  (tail_ ? tail_->wq_next_ : head_) = p;
  tail_ = p;
  ++size_;
}

void WaitQueue::unlink(Process* p) {
  assert(p->wq_ == this);
  (p->wq_prev_ ? p->wq_prev_->wq_next_ : head_) = p->wq_next_;
  (p->wq_next_ ? p->wq_next_->wq_prev_ : tail_) = p->wq_prev_;
  p->wq_ = nullptr;
  --size_;
}

}  // namespace multiedge::sim
