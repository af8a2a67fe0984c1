#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "sim/random.hpp"
#include "sim/wait_queue.hpp"

namespace multiedge::sim {
namespace {

TEST(Process, DelayAdvancesSimulatedTime) {
  Simulator sim;
  std::vector<Time> stamps;
  Process p(sim, "p", [&] {
    stamps.push_back(sim.now());
    Process::current()->delay(us(10));
    stamps.push_back(sim.now());
    Process::current()->delay(us(5));
    stamps.push_back(sim.now());
  });
  p.start();
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(stamps, (std::vector<Time>{0, us(10), us(15)}));
}

TEST(Process, SuspendBlocksUntilWake) {
  Simulator sim;
  Time resumed_at = -1;
  Process p(sim, "p", [&] {
    Process::current()->suspend();
    resumed_at = sim.now();
  });
  p.start();
  sim.in(us(30), [&] { p.wake(); });
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(resumed_at, us(30));
}

TEST(Process, WakeOnNonSuspendedIsNoOp) {
  Simulator sim;
  int steps = 0;
  Process p(sim, "p", [&] {
    ++steps;
    Process::current()->delay(us(10));
    ++steps;
  });
  p.start();
  // Waking mid-delay must not shorten the delay.
  sim.in(us(2), [&] { p.wake(); });
  sim.run();
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sim.now(), us(10));
}

TEST(Process, StaleDelayEventCannotWakeLaterBlock) {
  Simulator sim;
  std::vector<Time> stamps;
  Process p(sim, "p", [&] {
    Process* self = Process::current();
    self->suspend();             // woken at 5us by the event below
    stamps.push_back(sim.now());
    self->delay(us(100));        // must sleep the full 100us
    stamps.push_back(sim.now());
  });
  p.start();
  sim.in(us(5), [&] { p.wake(); });
  sim.run();
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], us(5));
  EXPECT_EQ(stamps[1], us(105));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  Process a(sim, "a", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("a" + std::to_string(i));
      Process::current()->delay(us(10));
    }
  });
  Process b(sim, "b", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("b" + std::to_string(i));
      Process::current()->delay(us(10));
    }
  });
  a.start();
  b.start();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, CurrentIsNullOutsideFibers) {
  EXPECT_EQ(Process::current(), nullptr);
}

TEST(WaitQueue, NotifyOneWakesFifo) {
  Simulator sim;
  WaitQueue q;
  std::vector<int> woken;
  Process p1(sim, "p1", [&] {
    q.wait();
    woken.push_back(1);
  });
  Process p2(sim, "p2", [&] {
    q.wait();
    woken.push_back(2);
  });
  p1.start();
  p2.start();
  sim.in(us(1), [&] { q.notify_one(); });
  sim.in(us(2), [&] { q.notify_one(); });
  sim.run();
  EXPECT_EQ(woken, (std::vector<int>{1, 2}));
}

TEST(WaitQueue, NotifyAllWakesEveryWaiter) {
  Simulator sim;
  WaitQueue q;
  int woken = 0;
  std::vector<std::unique_ptr<Process>> ps;
  for (int i = 0; i < 8; ++i) {
    ps.push_back(std::make_unique<Process>(sim, "p", [&] {
      q.wait();
      ++woken;
    }));
    ps.back()->start();
  }
  sim.in(us(1), [&] { q.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, 8);
  EXPECT_TRUE(q.empty());
}

TEST(WaitQueue, NotifyOnEmptyQueueIsSafe) {
  Simulator sim;
  WaitQueue q;
  q.notify_one();
  q.notify_all();
  EXPECT_TRUE(q.empty());
}

TEST(WaitQueue, MesaStyleConditionLoop) {
  Simulator sim;
  WaitQueue q;
  bool cond = false;
  Time observed = -1;
  Process waiter(sim, "waiter", [&] {
    while (!cond) q.wait();
    observed = sim.now();
  });
  waiter.start();
  // A notify without the condition being true must not release the waiter.
  sim.in(us(1), [&] { q.notify_all(); });
  sim.in(us(10), [&] {
    cond = true;
    q.notify_all();
  });
  sim.run();
  EXPECT_EQ(observed, us(10));
}

// --- timed waits: WaitQueue::wait_until / Process::suspend(deadline) ---

TEST(WaitQueue, WaitUntilTimesOutExactlyAtDeadline) {
  Simulator sim;
  WaitQueue q;
  bool woken = true;
  Time resumed_at = -1;
  Process p(sim, "p", [&] {
    woken = q.wait_until(us(10));
    resumed_at = sim.now();
  });
  p.start();
  sim.run();
  EXPECT_FALSE(woken);
  EXPECT_EQ(resumed_at, us(10));
  EXPECT_TRUE(q.empty()) << "a timed-out waiter must leave the queue";
  EXPECT_TRUE(p.done());
}

TEST(WaitQueue, WakeBeforeDeadlineRemovesTheTimer) {
  Simulator sim;
  WaitQueue q;
  const std::size_t baseline = sim.pending();
  bool woken = false;
  Time resumed_at = -1;
  Process p(sim, "p", [&] {
    woken = q.wait_until(us(100));
    resumed_at = sim.now();
  });
  p.start();
  sim.run_until(us(1));
  ASSERT_EQ(sim.pending(), baseline + 1) << "the deadline is one timer event";
  sim.in(us(4), [&] {
    q.notify_one();
    // The resume event replaced the timer: nothing is left at 100us.
    EXPECT_EQ(sim.pending(), baseline + 1);
  });
  sim.run();
  EXPECT_TRUE(woken);
  EXPECT_EQ(resumed_at, us(5));
  EXPECT_EQ(sim.now(), us(5)) << "a cancelled timer must never fire";
  EXPECT_EQ(sim.pending(), baseline);
}

// --- queue membership edge cases: timeouts, direct wakes, re-waits ---

TEST(WaitQueue, MiddleWaiterTimeoutKeepsFifoOrder) {
  Simulator sim;
  WaitQueue q;
  std::vector<int> woken;
  bool middle_woken = true;
  Process p1(sim, "p1", [&] {
    q.wait();
    woken.push_back(1);
  });
  Process p2(sim, "p2", [&] { middle_woken = q.wait_until(us(5)); });
  Process p3(sim, "p3", [&] {
    q.wait();
    woken.push_back(3);
  });
  p1.start();
  p2.start();
  p3.start();
  sim.in(us(6), [&] {
    EXPECT_EQ(q.size(), 2u) << "the timed-out middle waiter left the queue";
    q.notify_one();
  });
  sim.in(us(7), [&] { q.notify_one(); });
  sim.run();
  EXPECT_FALSE(middle_woken);
  EXPECT_EQ(woken, (std::vector<int>{1, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(WaitQueue, DirectlyWokenWaiterDropsOut) {
  Simulator sim;
  WaitQueue q;
  std::vector<int> woken;
  std::vector<std::unique_ptr<Process>> ps;
  for (int i = 1; i <= 3; ++i) {
    ps.push_back(std::make_unique<Process>(sim, "p", [&, i] {
      q.wait();
      woken.push_back(i);
    }));
    ps.back()->start();
  }
  sim.in(us(1), [&] {
    ASSERT_EQ(q.size(), 3u);
    ps[1]->wake();  // not through the queue
  });
  sim.in(us(2), [&] {
    EXPECT_EQ(q.size(), 2u) << "the directly woken waiter unlinked itself";
    q.notify_all();
    EXPECT_TRUE(q.empty());
  });
  sim.run();
  EXPECT_EQ(woken, (std::vector<int>{2, 1, 3}));
}

TEST(WaitQueue, TimedOutWaiterCanWaitOnAnotherQueue) {
  Simulator sim;
  WaitQueue q1, q2;
  bool first = true, second = false;
  Time resumed_at = -1;
  Process p(sim, "p", [&] {
    first = q1.wait_until(us(5));
    second = q2.wait_until(us(100));
    resumed_at = sim.now();
  });
  p.start();
  sim.in(us(6), [&] {
    EXPECT_TRUE(q1.empty());
    EXPECT_EQ(q2.size(), 1u);
    q1.notify_all();  // the old queue no longer holds p
    q2.notify_one();
  });
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_EQ(resumed_at, us(6));
  EXPECT_TRUE(q2.empty());
}

TEST(WaitQueue, NotifyAllSkipsLaterWaiters) {
  Simulator sim;
  WaitQueue q;
  int rounds = 0;
  bool late_woken = false;
  // `again` re-waits as soon as it is woken, and `late` starts waiting at
  // the instant of the notify_all, after it: neither may be woken again.
  Process again(sim, "again", [&] {
    q.wait();
    ++rounds;
    q.wait();
    ++rounds;
  });
  Process late(sim, "late", [&] {
    q.wait();
    late_woken = true;
  });
  again.start();
  sim.in(us(1), [&] {
    q.notify_all();
    late.start();
  });
  sim.run();
  EXPECT_EQ(rounds, 1);
  EXPECT_FALSE(late_woken);
  EXPECT_EQ(q.size(), 2u);
  q.notify_all();  // let both finish
  sim.run();
  EXPECT_EQ(rounds, 2);
  EXPECT_TRUE(late_woken);
}

TEST(Process, WakeAndTimeoutAtSameInstantResolveInEventOrder) {
  // A wake scheduled before the deadline's timer event runs first and wins;
  // one scheduled after it finds the process already timed out and is a
  // no-op. Either way the outcome is fixed by event order, run to run.
  auto run = [](bool wake_scheduled_first) {
    Simulator sim;
    bool woken = false;
    Process p(sim, "p", [&] {
      woken = Process::current()->suspend(us(10));
      EXPECT_EQ(sim.now(), us(10));
    });
    if (wake_scheduled_first) sim.in(us(10), [&] { p.wake(); });
    p.start();
    if (!wake_scheduled_first) {
      sim.in(us(5), [&] { sim.in(us(5), [&] { p.wake(); }); });
    }
    sim.run();
    EXPECT_TRUE(p.done());
    return woken;
  };
  EXPECT_TRUE(run(true));
  EXPECT_FALSE(run(false));
  EXPECT_TRUE(run(true));
  EXPECT_FALSE(run(false));
}

// --- predicate waits: WaitQueue::wait_until(pred, deadline) ---

TEST(WaitQueue, FalsePredicateWaiterIsNeverResumed) {
  Simulator sim;
  WaitQueue q;
  bool cond = false;
  int body_runs = 0;
  Time observed = -1;
  Process waiter(sim, "waiter", [&] {
    ++body_runs;
    auto pred = [&] { return cond; };
    EXPECT_TRUE(q.wait_until(pred));
    observed = sim.now();
  });
  waiter.start();
  for (int i = 1; i <= 5; ++i) sim.in(us(i), [&] { q.notify_all(); });
  sim.in(us(6), [&] { q.notify_one(); });
  sim.run_until(us(9));
  // Six notifies found the predicate false: each re-queued the waiter in
  // its resume event and never switched into the fiber.
  EXPECT_EQ(body_runs, 1);
  EXPECT_EQ(sim.fiber_counts().resumes, 1u);  // the start only
  EXPECT_EQ(sim.fiber_counts().requeues, 6u);
  EXPECT_EQ(q.size(), 1u);
  sim.at(us(10), [&] {
    cond = true;
    q.notify_all();
  });
  sim.run();
  EXPECT_TRUE(waiter.done());
  EXPECT_EQ(observed, us(10));
  EXPECT_EQ(sim.fiber_counts().resumes, 2u);
  EXPECT_EQ(sim.fiber_counts().requeues, 6u);
}

TEST(WaitQueue, RequeuedWaiterDeadlineFiresOnTime) {
  Simulator sim;
  WaitQueue q;
  bool ok = true;
  Time returned_at = -1;
  Process waiter(sim, "waiter", [&] {
    auto never = [] { return false; };
    ok = q.wait_until(never, us(50));
    returned_at = sim.now();
  });
  waiter.start();
  for (int t : {10, 20, 30, 49}) sim.in(us(t), [&] { q.notify_all(); });
  sim.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(returned_at, us(50));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(sim.fiber_counts().requeues, 4u);
  EXPECT_EQ(sim.fiber_counts().resumes, 2u);  // the start and the timeout
}

TEST(WaitQueue, NotifyAtTheDeadlineResumesTheWaiter) {
  // With no time left the wait loop would return, so the resume event must
  // switch into the fiber rather than re-queue it.
  Simulator sim;
  WaitQueue q;
  bool ok = true;
  Process waiter(sim, "waiter", [&] {
    auto never = [] { return false; };
    ok = q.wait_until(never, us(50));
    EXPECT_EQ(sim.now(), us(50));
  });
  sim.in(us(50), [&] { q.notify_all(); });  // runs before the timeout event
  waiter.start();
  sim.run();
  EXPECT_FALSE(ok);
  EXPECT_TRUE(waiter.done());
  EXPECT_EQ(sim.fiber_counts().requeues, 0u);
}

TEST(WaitQueue, DirectWakeResumesPredicateWaiter) {
  Simulator sim;
  WaitQueue q;
  bool cond = false;
  int pred_checks_in_fiber = 0;
  Process waiter(sim, "waiter", [&] {
    Process* self = Process::current();
    auto pred = [&] {
      if (Process::current() == self) ++pred_checks_in_fiber;
      return cond;
    };
    q.wait_until(pred);
  });
  waiter.start();
  sim.in(us(1), [&] { waiter.wake(); });  // not through the queue
  sim.run_until(us(2));
  // The direct wake switched into the fiber, whose loop re-checked the
  // predicate and waited again.
  EXPECT_EQ(sim.fiber_counts().resumes, 2u);
  EXPECT_EQ(sim.fiber_counts().requeues, 0u);
  EXPECT_EQ(pred_checks_in_fiber, 2);
  EXPECT_EQ(q.size(), 1u);
  sim.at(us(3), [&] {
    cond = true;
    q.notify_one();
  });
  sim.run();
  EXPECT_TRUE(waiter.done());
  EXPECT_TRUE(q.empty());
}

// A seeded random script of waits, notifies and deadlines, run once with
// predicate waits (spurious wakeups re-queue in the resume event) and once
// with the plain Mesa loop over wait_until(deadline) (every wakeup switches
// into the fiber). Both must produce the same simulation.
struct ScriptRun {
  std::vector<std::tuple<Time, int, int, bool>> returns;  // when, who, round, ok
  Time end = 0;
  std::uint64_t events = 0;
  Simulator::FiberCounts counts;
};

ScriptRun run_wait_script(std::uint64_t seed, bool with_predicates) {
  constexpr int kProcs = 6;
  constexpr int kRounds = 12;
  constexpr int kNotifies = 300;
  Simulator sim;
  WaitQueue q;
  std::vector<int> tokens(kProcs, 0);
  ScriptRun out;
  std::vector<std::unique_ptr<Process>> ps;
  for (int i = 0; i < kProcs; ++i) {
    ps.push_back(std::make_unique<Process>(sim, "w", [&, i] {
      Rng rng(seed * 31 + static_cast<std::uint64_t>(i));
      auto pred = [&] { return tokens[i] > 0; };
      for (int round = 0; round < kRounds; ++round) {
        const auto wait_us = static_cast<std::int64_t>(1 + rng.next_below(40));
        const Time deadline =
            rng.chance(0.3) ? kTimeInfinity : sim.now() + us(wait_us);
        bool ok;
        if (with_predicates) {
          ok = q.wait_until(pred, deadline);
        } else {
          while (!(ok = pred())) {
            if (sim.now() >= deadline || !q.wait_until(deadline)) {
              ok = pred();
              break;
            }
          }
        }
        out.returns.emplace_back(sim.now(), i, round, ok);
        if (ok) --tokens[i];
        const auto pause_ns = static_cast<std::int64_t>(rng.next_below(3000));
        if (rng.chance(0.5)) Process::current()->delay(ns(pause_ns));
      }
    }));
  }
  for (auto& p : ps) p->start();
  Rng script(seed);
  for (int n = 0; n < kNotifies; ++n) {
    const Time at = ns(static_cast<std::int64_t>(script.next_below(200000)));
    const auto action = script.next_below(4);
    const int who = static_cast<int>(script.next_below(kProcs));
    sim.at(at, [&, action, who] {
      if (action >= 2) ++tokens[who];  // makes one waiter's predicate true
      if (action % 2 == 0) {
        q.notify_all();
      } else {
        q.notify_one();
      }
    });
  }
  sim.run();
  // Unblock whoever still waits on an infinite deadline.
  while (!q.empty()) {
    for (int& t : tokens) ++t;
    q.notify_all();
    sim.run();
  }
  for (auto& p : ps) EXPECT_TRUE(p->done());
  out.end = sim.now();
  out.events = sim.events_executed();
  out.counts = sim.fiber_counts();
  return out;
}

TEST(WaitQueue, PredicateWaitsReplayThePlainLoopExactly) {
  for (std::uint64_t seed : {1u, 2u, 3u, 20261020u}) {
    const ScriptRun plain = run_wait_script(seed, false);
    const ScriptRun pred = run_wait_script(seed, true);
    EXPECT_EQ(pred.returns, plain.returns) << "seed " << seed;
    EXPECT_EQ(pred.end, plain.end) << "seed " << seed;
    EXPECT_EQ(pred.events, plain.events) << "seed " << seed;
    // Every elided switch is one the plain loop made.
    EXPECT_EQ(plain.counts.requeues, 0u);
    EXPECT_GT(pred.counts.requeues, 0u) << "seed " << seed;
    EXPECT_EQ(pred.counts.resumes + pred.counts.requeues, plain.counts.resumes)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace multiedge::sim
