// Application correctness: every Table 1 kernel must produce the same result
// (exact digest, or physics within tolerance) regardless of node count and
// network configuration, and the harness must report coherent statistics.
#include <gtest/gtest.h>

#include "apps/harness.hpp"

namespace multiedge::apps {
namespace {

// Small problem instances so the whole matrix of tests stays fast.
AppParams tiny(const std::string& app) {
  AppParams p;
  if (app == "FFT") p.n = 1 << 12;
  if (app == "LU") {
    p.n = 256;
    p.m = 32;
  }
  if (app == "Radix") p.n = 1 << 14;
  if (app == "Barnes-Spatial") {
    p.n = 2048;
    p.steps = 1;
  }
  if (app == "Raytrace") {
    p.m = 64;
    p.n = 24;
  }
  if (app == "Water-Nsquared") {
    p.n = 256;
    p.steps = 1;
  }
  if (app == "Water-Spatial" || app == "Water-SpatialFL") {
    p.n = 1024;
    p.steps = 1;
  }
  return p;
}

HarnessOptions small_1l_1g() {
  HarnessOptions o = setup_1l_1g();
  o.dsm.shared_bytes = std::size_t{12} << 20;
  return o;
}

class AppCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(AppCorrectness, ChecksumIndependentOfNodeCount) {
  const std::string app = GetParam();
  const AppParams p = tiny(app);
  HarnessOptions o = small_1l_1g();

  const AppRunResult r1 = run_app(o, app, p, 1);
  const AppRunResult r4 = run_app(o, app, p, 4);
  EXPECT_EQ(r1.checksum, r4.checksum) << app;
  EXPECT_GT(r1.parallel_ms, 0.0);
  EXPECT_GT(r4.parallel_ms, 0.0);
}

TEST_P(AppCorrectness, ChecksumIndependentOfNetworkConfig) {
  const std::string app = GetParam();
  const AppParams p = tiny(app);

  HarnessOptions o1 = small_1l_1g();
  HarnessOptions o2 = setup_2lu_1g();
  o2.dsm.shared_bytes = o1.dsm.shared_bytes;

  const AppRunResult a = run_app(o1, app, p, 4);
  const AppRunResult b = run_app(o2, app, p, 4);
  EXPECT_EQ(a.checksum, b.checksum)
      << app << ": out-of-order delivery with fences changed the result";
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppCorrectness,
                         ::testing::ValuesIn(table1_app_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(AppHarness, BreakdownCoversParallelTime) {
  HarnessOptions o = small_1l_1g();
  const AppRunResult r = run_app(o, "FFT", tiny("FFT"), 4);
  ASSERT_EQ(r.per_node.size(), 4u);
  for (const NodeBreakdown& b : r.per_node) {
    const double accounted = b.compute_ms + b.data_wait_ms + b.lock_wait_ms +
                             b.barrier_wait_ms + b.dsm_overhead_ms;
    // Breakdown components must roughly fill the parallel section (some
    // protocol time on the app CPU is unaccounted, so allow slack).
    EXPECT_GT(accounted, 0.5 * r.parallel_ms);
    EXPECT_LT(accounted, 1.6 * r.parallel_ms);
  }
}

TEST(AppHarness, CommunicationHappened) {
  HarnessOptions o = small_1l_1g();
  const AppRunResult r = run_app(o, "Radix", tiny("Radix"), 4);
  EXPECT_GT(r.data_frames, 100u);
  EXPECT_GT(r.interrupts, 0u);
  EXPECT_EQ(r.dropped_frames, 0u);  // clean network
  EXPECT_LT(r.extra_frame_fraction(), 0.6);
}

TEST(AppHarness, SingleNodeRunsHaveNoNetworkTraffic) {
  HarnessOptions o = small_1l_1g();
  const AppRunResult r = run_app(o, "LU", tiny("LU"), 1);
  EXPECT_EQ(r.data_frames, 0u);
}

TEST(AppHarness, SpeedupFromParallelism) {
  // With a compute-dominant app at a reasonable size, four nodes must beat
  // one clearly.
  HarnessOptions o = small_1l_1g();
  AppParams p;
  p.m = 256;
  p.n = 48;
  const AppRunResult r1 = run_app(o, "Raytrace", p, 1);
  const AppRunResult r4 = run_app(o, "Raytrace", p, 4);
  EXPECT_GT(r1.parallel_ms / r4.parallel_ms, 2.2);
}

TEST(AppRegistry, AllTableOneAppsRegistered) {
  EXPECT_EQ(table1_app_names().size(), 8u);
  for (const auto& name : table1_app_names()) {
    EXPECT_NO_THROW({ auto app = make_app(name, tiny(name)); });
  }
  EXPECT_THROW(make_app("NoSuchApp"), std::invalid_argument);
}

}  // namespace
}  // namespace multiedge::apps
