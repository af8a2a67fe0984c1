#include "sim/process.hpp"

#include <utility>

#include "sim/wait_queue.hpp"

namespace multiedge::sim {

Process::Process(Simulator& sim, std::string name, Fiber::Body body,
                 std::size_t stack_bytes)
    : sim_(sim), name_(std::move(name)), fiber_(std::move(body), stack_bytes) {}

void Process::start() {
  assert(state_ == State::kCreated);
  state_ = State::kReady;
  const std::uint64_t gen = ++block_gen_;
  sim_.in(0, [this, gen] {
    if (gen != block_gen_ || state_ != State::kReady) return;
    run_slice();
  });
}

void Process::run_slice() {
  ++sim_.fiber_counts().resumes;
  state_ = State::kRunning;
  Process* prev = current_;
  current_ = this;
  fiber_.resume();
  current_ = prev;
  if (fiber_.done()) {
    state_ = State::kFinished;
  }
  // Otherwise the fiber blocked via delay()/suspend(), which already set
  // state_ and scheduled any resume event before yielding.
}

void Process::delay(Time d) {
  assert(current_ == this && "delay() called outside the process fiber");
  state_ = State::kDelaying;
  const std::uint64_t gen = ++block_gen_;
  sim_.in(d, [this, gen] {
    if (gen != block_gen_ || state_ != State::kDelaying) return;
    state_ = State::kReady;
    run_slice();
  });
  Fiber::yield();
}

bool Process::suspend(Time deadline) {
  assert(current_ == this && "suspend() called outside the process fiber");
  block(deadline);
  Fiber::yield();
  return !timed_out_;
}

void Process::block(Time deadline) {
  state_ = State::kSuspended;
  const std::uint64_t gen = ++block_gen_;
  deadline_ = deadline;
  timed_out_ = false;
  if (deadline != kTimeInfinity) {
    timeout_ = sim_.at_cancellable(deadline, [this, gen] {
      if (gen != block_gen_ || state_ != State::kSuspended) return;
      timed_out_ = true;
      state_ = State::kReady;
      run_slice();
    });
  }
}

void Process::schedule_resume(WaitQueue* via) {
  if (state_ != State::kSuspended) return;
  sim_.cancel(timeout_);  // stale or default ids are ignored
  state_ = State::kReady;
  const std::uint64_t gen = ++block_gen_;
  sim_.in(0, [this, gen, via] {
    if (gen != block_gen_ || state_ != State::kReady) return;
    if (via != nullptr && via->requeue_if_false(this)) return;
    run_slice();
  });
}

}  // namespace multiedge::sim
