#include "sim/wait_queue.hpp"

#include <algorithm>
#include <cassert>

namespace multiedge::sim {

void WaitQueue::wait() { wait_until(kTimeInfinity); }

bool WaitQueue::wait_until(Time deadline) {
  Process* self = Process::current();
  assert(self != nullptr && "WaitQueue::wait() outside any process");
  waiters_.push_back(self);
  const bool woken = self->suspend(deadline);
  // On a notify the notifier already removed us; after a timeout, or if the
  // process was woken directly via Process::wake() (not through this queue),
  // drop the stale entry to keep the queue consistent.
  auto it = std::find(waiters_.begin(), waiters_.end(), self);
  if (it != waiters_.end()) waiters_.erase(it);
  return woken;
}

void WaitQueue::notify_one() {
  if (waiters_.empty()) return;
  Process* p = waiters_.front();
  waiters_.pop_front();
  p->wake();
}

void WaitQueue::notify_all() {
  std::deque<Process*> ws;
  ws.swap(waiters_);
  for (Process* p : ws) p->wake();
}

}  // namespace multiedge::sim
