// Tier-2 scale stress: a seed-replayable 128-node mixed KV + barrier run on
// a fat-tree fabric, with scheduled transient rail outages and one full node
// crash, verified under BOTH checkers:
//
//  * the protocol InvariantChecker (proto/invariants.hpp), and
//  * a membership shadow-checker: no observer may mark a peer Dead unless
//    that peer really is inside its crash window (or the observer itself is
//    the crashed node, whose isolated view legitimately gives up on the
//    world). Transient single-rail outages are shorter than the suspicion
//    maturity, so they must never produce a down-mark at all.
//
// Every scenario is a pure function of one uint64 seed. To replay:
//
//   MULTIEDGE_STRESS_SEED=<seed> ./build/tests/member_scale_stress_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "core/api.hpp"
#include "kv/kv.hpp"
#include "member/member.hpp"
#include "sim/process.hpp"
#include "sim/random.hpp"

namespace multiedge {
namespace {

constexpr int kNodes = 128;
constexpr int kLoaders = 8;  // nodes hosting KV clients

std::vector<std::uint64_t> stress_seeds() {
  if (const char* env = std::getenv("MULTIEDGE_STRESS_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  return {1, 2};
}

void run_scale_scenario(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  ClusterConfig ccfg = config_2l_1g(kNodes);
  ccfg.topology.edge_groups = 8;  // fat-tree pod: 8 edges x 2 spines per rail
  ccfg.topology.spines = 2;
  ccfg.protocol.check_invariants = true;
  // Black-box ring: a red run ships a replayable postmortem (last-N events,
  // counters, rail health, membership views) instead of just a log line.
  ccfg.trace.flight_recorder = true;

  // One full node crash (both rails, never recovers) ...
  const int victim = 1 + static_cast<int>(rng.next_below(kNodes - 1));
  const sim::Time crash_at = sim::ms(25);
  for (int r = 0; r < 2; ++r) {
    ccfg.topology.rail_outages.push_back(
        {/*rail=*/r, /*node=*/victim, crash_at, sim::sec(100)});
  }
  // ... plus a few transient single-rail wiggles on other nodes, each far
  // shorter than the suspicion maturity below.
  for (int i = 0; i < 3; ++i) {
    int node = static_cast<int>(rng.next_below(kNodes));
    if (node == victim) node = (node + 1) % kNodes;
    const int rail = static_cast<int>(rng.next_below(2));
    const sim::Time start = sim::ms(5) + sim::us(rng.next_below(10'000));
    const sim::Time len = sim::us(500) + sim::us(rng.next_below(1'500));
    ccfg.topology.rail_outages.push_back({rail, node, start, start + len});
  }

  Cluster cluster(std::move(ccfg));

  member::MemberConfig mcfg;
  // Suspicion must outlive the reliable protocol's 5ms retransmit timeout by
  // a comfortable margin, or a single dropped refutation turns a 2ms rail
  // wiggle into a false down-mark (same margin as MemberRobustness tests).
  mcfg.suspect_timeout = sim::ms(15);
  mcfg.seed = seed ^ 0x5ca1ab1eull;
  member::Service svc(cluster, mcfg);

  // --- membership shadow-checker ---
  std::vector<std::string> shadow_violations;
  svc.add_on_transition([&](int observer, int peer, member::PeerState st,
                            sim::Time t) {
    if (st != member::PeerState::kDead) return;
    const bool peer_crashed = (peer == victim && t >= crash_at);
    const bool observer_isolated = (observer == victim && t >= crash_at);
    if (!peer_crashed && !observer_isolated) {
      shadow_violations.push_back(
          "node " + std::to_string(observer) + " marked live node " +
          std::to_string(peer) + " dead at t=" + std::to_string(t));
      cluster.trigger_postmortem("membership false down-mark: " +
                                 shadow_violations.back());
    }
  });

  coll::CollConfig collcfg;
  collcfg.max_data_bytes = 16 * 1024;  // barrier-only: tiny staging
  coll::CollDomain dom(cluster, collcfg);

  kv::KvConfig kcfg;
  kcfg.partitions = 96;
  kcfg.replication = 3;
  kcfg.clients_per_node = 1;
  kcfg.slots_per_partition = 64;
  kcfg.buckets_per_partition = 32;
  kcfg.max_value_bytes = 64;
  kcfg.seed = seed ^ 0x6b76ULL;
  kv::System sys(cluster, kcfg, &svc);

  // --- barrier fibers on every node: run until the crash dooms them ---
  int barrier_failures = 0;
  int barrier_fibers_done = 0;
  std::uint64_t barriers_completed = 0;
  for (int node = 0; node < kNodes; ++node) {
    cluster.spawn(node, "bar-" + std::to_string(node), [&, node](Endpoint& ep) {
      coll::Communicator comm(dom, ep);
      comm.set_membership(&svc.view(node));
      try {
        for (int round = 0; round < 1'000'000; ++round) {
          comm.barrier();
          if (node == 0) ++barriers_completed;
          sim::Process::current()->delay(sim::us(200));
        }
        ADD_FAILURE() << "rank " << node << " never observed the crash";
      } catch (const coll::PeerFailure& f) {
        ++barrier_failures;
        if (node != victim) {
          EXPECT_EQ(f.peer, victim) << "rank " << node << " blamed the wrong node";
        }
      }
      ++barrier_fibers_done;
    });
  }

  // --- KV clients on loader nodes (never the victim): strict differential
  // ops before the crash, a pause across the detection window, then strict
  // ops again — any key whose primary died must fail over transparently. ---
  const sim::Time resume_at =
      crash_at + svc.detection_bound() + sim::ms(5);
  int clients_done = 0;
  for (int i = 0; i < kLoaders; ++i) {
    int node = static_cast<int>(rng.next_below(kNodes));
    if (node == victim) node = (node + 1) % kNodes;
    const std::uint64_t tape_seed = rng.next_u64();
    sys.spawn_client(node, "cli-" + std::to_string(i),
                     [&, i, tape_seed](kv::Client& c) {
      sim::Rng trng(tape_seed);
      const std::string pfx = "s" + std::to_string(i) + "-";
      // Phase A: healthy cluster (with transient rail wiggles underneath).
      for (int op = 0; op < 12; ++op) {
        const std::string k = pfx + std::to_string(trng.next_below(24));
        const std::string v = "a" + std::to_string(op);
        ASSERT_EQ(c.put(k, v), kv::Status::kOk) << k;
        std::string got;
        ASSERT_EQ(c.get(k, &got), kv::Status::kOk) << k;
        ASSERT_EQ(got, v) << k;
        c.pause(sim::us(500) + sim::us(trng.next_below(1'000)));
      }
      // Ride out the crash + detection window: pausing for the full
      // absolute resume point is a generous upper bound on the remainder.
      c.pause(resume_at);
      // Phase B: the detector has converged; every op must succeed even if
      // its partition's primary was the victim (backup promotion).
      for (int op = 0; op < 8; ++op) {
        const std::string k = pfx + "b" + std::to_string(trng.next_below(12));
        const std::string v = "b" + std::to_string(op);
        ASSERT_EQ(c.put(k, v), kv::Status::kOk) << k;
        std::string got;
        ASSERT_EQ(c.get(k, &got), kv::Status::kOk) << k;
        ASSERT_EQ(got, v) << k;
      }
      ++clients_done;
    });
  }

  // --- supervisor: stop the membership service once all real work ended ---
  cluster.spawn(0, "supervisor", [&](Endpoint&) {
    while (barrier_fibers_done < kNodes || clients_done < kLoaders) {
      sim::Process::current()->delay(sim::ms(1));
    }
    svc.stop();
  });

  cluster.run();

  EXPECT_TRUE(shadow_violations.empty())
      << shadow_violations.size() << " shadow violations, first: "
      << shadow_violations.front();
  EXPECT_TRUE(cluster.invariant_violations().empty())
      << cluster.invariant_violations().front();
  EXPECT_GT(cluster.invariant_checks_run(), 0u);

  EXPECT_GT(barriers_completed, 0u) << "no barrier ever completed pre-crash";
  EXPECT_EQ(barrier_failures, kNodes)
      << "every rank must abort the doomed barrier";
  for (int n = 0; n < kNodes; ++n) {
    if (n == victim) continue;
    EXPECT_TRUE(svc.view(n).is_down(victim))
        << "survivor " << n << " never learned of the crash";
  }
  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_peers_marked_down"), 0u);
}

TEST(MemberScaleStress, MixedKvBarrierRunWithCrashAndOutages) {
  for (const std::uint64_t seed : stress_seeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_scale_scenario(seed);
  }
}

}  // namespace
}  // namespace multiedge
