// Host allocation counter: alloc_count.cpp replaces the global operator
// new/delete with counting versions. Link it into a binary (kv_bench,
// simspeed, sim_alloc_test) to read how many heap allocations a stretch of
// code made; the count is deterministic for a deterministic simulation.
#pragma once

#include <cstdint>

namespace multiedge::bench {

/// Calls to any global operator new in this process so far.
std::uint64_t alloc_count();

}  // namespace multiedge::bench
