#include "sim/fiber.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

namespace multiedge::sim {
namespace {

TEST(Fiber, RunsBodyToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
    Fiber::yield();
    order.push_back(5);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  order.push_back(4);
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecutingFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, LocalStateSurvivesYield) {
  int out = 0;
  Fiber f([&] {
    int local = 7;
    Fiber::yield();
    local *= 6;
    out = local;
  });
  f.resume();
  f.resume();
  EXPECT_EQ(out, 42);
}

TEST(Fiber, ManyFibersInterleave) {
  constexpr int kFibers = 32;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> counts(kFibers, 0);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counts, i] {
      for (int step = 0; step < 3; ++step) {
        ++counts[i];
        Fiber::yield();
      }
    }));
  }
  for (int round = 0; round < 4; ++round) {
    for (auto& f : fibers) {
      if (!f->done()) f->resume();
    }
  }
  for (int i = 0; i < kFibers; ++i) EXPECT_EQ(counts[i], 3) << i;
}

TEST(Fiber, UnstartedFiberDestructsSafely) {
  Fiber f([] { FAIL() << "body must not run"; });
  // Destructor of an unstarted fiber must not execute the body.
}

// Recursion that cannot be turned into a loop: each frame's buffer stays
// live across the call below it.
[[gnu::noinline]] std::size_t recurse(std::size_t depth) {
  char buf[1024];
  std::memset(buf, static_cast<int>(depth), sizeof buf);
  const std::size_t below = depth == 0 ? 0 : recurse(depth - 1);
  asm volatile("" : : "r"(buf) : "memory");
  return below + static_cast<unsigned char>(buf[depth % sizeof buf]);
}

TEST(FiberDeathTest, StackOverflowHitsTheGuardPage) {
  EXPECT_DEATH(
      {
        Fiber f([] { recurse(std::size_t{1} << 20); }, 16 * 1024);
        f.resume();
      },
      "");
}

long rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(Fiber, StacksCommitOnlyTouchedPages) {
  const long before = rss_kib();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  int ran = 0;
  for (int i = 0; i < 64; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&] { ++ran; }));
  }
  // 64 default stacks reserve 16 MiB of address space; only the pages
  // makecontext() writes are committed.
  EXPECT_LT(rss_kib() - before, 1024);
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(ran, 64);
}

}  // namespace
}  // namespace multiedge::sim
