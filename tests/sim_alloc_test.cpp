// Host allocation regressions: waiting and notifying must not touch the
// heap once the simulator's queues reach steady state, and an operation
// handle costs exactly one allocation. Built as its own executable with the
// counting operator new/delete from bench/alloc_count.cpp.
#include <gtest/gtest.h>

#include <memory>

#include "alloc_count.hpp"
#include "proto/types.hpp"
#include "sim/process.hpp"
#include "sim/wait_queue.hpp"

namespace multiedge {
namespace {

using bench::alloc_count;
using sim::Process;
using sim::us;

TEST(SimAlloc, WaitAndNotifyCyclesAllocateNothing) {
  constexpr int kWarmUp = 16;
  constexpr int kCycles = 1000;
  sim::Simulator sim;
  sim::WaitQueue q;
  std::uint64_t before = 0, after = 0;
  int notified = 0, timed_out = 0;
  // Each cycle: a wait_until ended by notify_one, a wait_until that times
  // out, and a wait ended by notify_all.
  Process waiter(sim, "waiter", [&] {
    for (int i = 0; i < kWarmUp + kCycles; ++i) {
      if (i == kWarmUp) before = alloc_count();
      notified += q.wait_until(sim.now() + us(10));
      timed_out += !q.wait_until(sim.now() + us(1));
      q.wait();
      ++notified;
    }
    after = alloc_count();
  });
  Process notifier(sim, "notifier", [&] {
    for (int i = 0; i < kWarmUp + kCycles; ++i) {
      Process::current()->delay(us(1));
      q.notify_one();
      Process::current()->delay(us(2));
      q.notify_all();
    }
  });
  waiter.start();
  notifier.start();
  sim.run();
  ASSERT_TRUE(waiter.done());
  EXPECT_EQ(notified, 2 * (kWarmUp + kCycles));
  EXPECT_EQ(timed_out, kWarmUp + kCycles);
  EXPECT_EQ(after - before, 0u);
}

std::shared_ptr<proto::SendOp> g_op;  // escapes, so the allocation stays

TEST(SimAlloc, SendOpCostsOneAllocation) {
  const std::uint64_t before = alloc_count();
  g_op = std::make_shared<proto::SendOp>();
  EXPECT_EQ(alloc_count() - before, 1u);
  g_op.reset();
}

}  // namespace
}  // namespace multiedge
