// Node arena: a MemorySpace reserves its configured size as address space and
// commits only the pages that are touched, while still reading as all zeros.
#include "proto/memory.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <fstream>

namespace multiedge::proto {
namespace {

// Resident set size of this process in bytes, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0, resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(MemorySpace, ConstructionCommitsNoMemory) {
  constexpr std::size_t kBytes = std::size_t{256} << 20;
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
  MemorySpace mem(kBytes);
  const std::size_t after = resident_bytes();
  const std::size_t grew = after > before ? after - before : 0;
  EXPECT_LT(grew, std::size_t{4} << 20)
      << "constructing a " << (kBytes >> 20) << " MiB arena made "
      << (grew >> 20) << " MiB resident";

  ASSERT_EQ(mem.size(), kBytes);
  const std::array<std::uint64_t, 3> offsets = {0, kBytes / 2, kBytes - 1};
  for (const std::uint64_t va : offsets) {
    std::byte b{0xff};
    mem.read(va, {&b, 1});
    EXPECT_EQ(b, std::byte{0}) << "offset " << va << " not zero";
    const std::byte w{0x5a};
    mem.write(va, {&w, 1});
    mem.read(va, {&b, 1});
    EXPECT_EQ(b, w) << "offset " << va << " did not round-trip";
  }
}

}  // namespace
}  // namespace multiedge::proto
