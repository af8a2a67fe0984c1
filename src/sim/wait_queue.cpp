#include "sim/wait_queue.hpp"

#include <cassert>

namespace multiedge::sim {

void WaitQueue::wait() { wait_until(kTimeInfinity); }

bool WaitQueue::wait_once(Time deadline, WaitPredicate pred) {
  Process* self = Process::current();
  assert(self != nullptr && "WaitQueue::wait() outside any process");
  push_back(self);
  self->wq_pred_ = pred;
  const bool woken = self->suspend(deadline);
  self->wq_pred_ = {};
  // On a notify the notifier already unlinked us; after a timeout, or if the
  // process was woken directly via Process::wake() (not through this queue),
  // drop the stale link to keep the queue consistent.
  if (self->wq_ == this) unlink(self);
  return woken;
}

bool WaitQueue::requeue_if_false(Process* p) {
  // The loop in wait_until(pred, deadline) would now see wait_once() return
  // true, re-check pred(), compare the time with the deadline and call
  // wait_once() again: push_back, then suspend()'s block(). Doing the same
  // here keeps every scheduling call, and so the event order, unchanged.
  if (!p->wq_pred_ || p->sim_.now() >= p->deadline_ || p->wq_pred_()) {
    return false;
  }
  push_back(p);
  p->block(p->deadline_);
  ++p->sim_.fiber_counts().requeues;
  return true;
}

void WaitQueue::notify_one() {
  if (head_ == nullptr) return;
  Process* p = head_;
  unlink(p);
  p->schedule_resume(this);
}

void WaitQueue::notify_all() {
  // A resume is only scheduled, so no waiter runs (or re-queues) before the
  // loop ends: this wakes exactly the current waiters.
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
