// A Process is a fiber scheduled by the Simulator.
//
// Inside the fiber, a process can sleep for simulated time (delay), block
// until an external wake or an optional deadline (suspend/wake), and compose
// with WaitQueue and Cpu for higher-level blocking. Outside code interacts
// with it only through start()/wake()/done().
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "sim/fiber.hpp"
#include "sim/simulator.hpp"

namespace multiedge::sim {

class WaitQueue;

/// Non-owning reference to a wait condition: `fn(ctx)` evaluates it. A
/// WaitQueue evaluates it in the waiter's resume event, outside its fiber,
/// so it must be pure, must not throw and must not use Process::current()
/// (DESIGN.md §4). The referenced callable must outlive the wait.
struct WaitPredicate {
  bool (*fn)(void*) = nullptr;
  void* ctx = nullptr;

  template <class F>
  static WaitPredicate of(F& pred) {
    return {[](void* p) -> bool { return (*static_cast<F*>(p))(); },
            const_cast<void*>(static_cast<const void*>(&pred))};
  }
  explicit operator bool() const { return fn != nullptr; }
  bool operator()() const { return fn(ctx); }
};

class Process {
 public:
  enum class State { kCreated, kReady, kRunning, kDelaying, kSuspended, kFinished };

  Process(Simulator& sim, std::string name, Fiber::Body body,
          std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { sim_.cancel(timeout_); }  // a pending deadline captures this

  /// Schedule the first run at the current simulated time.
  void start();

  /// --- Calls valid only from inside this process's fiber. ---

  /// Sleep for `d` of simulated time. Not interruptible by wake().
  void delay(Time d);

  /// Block until some other code calls wake(), or until the absolute time
  /// `deadline`, whichever comes first: a delay() that can also be woken.
  /// Returns false on timeout. A wake cancels the pending timeout event, so
  /// an early wake leaves nothing behind in the event queue. A wake and a
  /// timeout at the same instant resolve in event order: whichever event was
  /// scheduled first wins, and the other becomes a no-op.
  bool suspend(Time deadline = kTimeInfinity);

  /// --- Calls valid only from outside the fiber. ---

  /// Unblock a suspended process; it resumes at the current simulated time.
  /// Waking a process that is not suspended is a no-op (wakeups never queue;
  /// callers must re-check their condition after suspend() returns). A
  /// direct wake always resumes the fiber, even one waiting in a WaitQueue
  /// with a predicate that is still false.
  void wake() { schedule_resume(nullptr); }

  bool done() const { return state_ == State::kFinished; }
  State state() const { return state_; }
  const std::string& name() const { return name_; }
  Simulator& sim() { return sim_; }

  /// The process whose fiber is currently executing, or nullptr.
  static Process* current() { return current_; }

  /// Fiber-local causal-trace slot: the span this fiber is currently inside
  /// (0 = none). Owned by trace::SpanScope and read by the protocol layer
  /// when an operation is submitted; kept here (rather than on the engine)
  /// because a fiber can yield mid-operation and another fiber must not
  /// inherit its context. The sim layer never interprets these values.
  struct SpanSlot {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
  };
  SpanSlot span_slot;

 private:
  void run_slice();
  /// State change and deadline of a block: shared by suspend() and by a
  /// WaitQueue re-queueing the process without resuming it.
  void block(Time deadline);
  /// wake(), recording the queue that notified the process (nullptr for a
  /// direct wake): the resume event offers it the chance to re-queue.
  void schedule_resume(WaitQueue* via);

  Simulator& sim_;
  std::string name_;
  Fiber fiber_;
  State state_ = State::kCreated;
  std::uint64_t block_gen_ = 0;  // invalidates stale resume events
  Simulator::EventId timeout_;   // pending suspend() deadline, if any
  Time deadline_ = kTimeInfinity;  // of the current block
  bool timed_out_ = false;

  // WaitQueue's intrusive links: the queue this process waits in (nullptr
  // when none) and its neighbours there; and the condition it waits for
  // (empty for a plain wait).
  friend class WaitQueue;
  WaitQueue* wq_ = nullptr;
  Process* wq_prev_ = nullptr;
  Process* wq_next_ = nullptr;
  WaitPredicate wq_pred_;

  inline static Process* current_ = nullptr;
};

}  // namespace multiedge::sim
