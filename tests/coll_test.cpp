// src/coll tests: gather-read mirror op, tagged notification fairness,
// differential correctness of every collective algorithm against the linear
// fallback across topologies and node counts, fault-tolerance runs (burst
// loss, rail outage) and the membership fail-fast exit of a rank declared
// dead, with the protocol invariant checker armed.
#include <algorithm>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "coll/coll.hpp"
#include "core/api.hpp"
#include "member/member.hpp"

namespace multiedge {
namespace {

// Cluster wrapper that arms the invariant checker and asserts no violation
// was recorded, whatever else the test checks.
struct CheckedCluster : Cluster {
  explicit CheckedCluster(ClusterConfig cfg) : Cluster(arm(std::move(cfg))) {}
  ~CheckedCluster() {
    EXPECT_TRUE(invariant_violations().empty())
        << invariant_violations().front();
    EXPECT_GT(invariant_checks_run(), 0u);
  }
  static ClusterConfig arm(ClusterConfig cfg) {
    cfg.protocol.check_invariants = true;
    return cfg;
  }
};

void fill_pattern(proto::MemorySpace& mem, std::uint64_t va, std::size_t len,
                  std::uint8_t seed) {
  auto span = mem.view_mut(va, len);
  for (std::size_t i = 0; i < len; ++i) {
    span[i] = static_cast<std::byte>((seed + i * 7) & 0xff);
  }
}

bool check_pattern(proto::MemorySpace& mem, std::uint64_t va, std::size_t len,
                   std::uint8_t seed) {
  auto span = mem.view(va, len);
  for (std::size_t i = 0; i < len; ++i) {
    if (span[i] != static_cast<std::byte>((seed + i * 7) & 0xff)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// rdma_gather_read
// ---------------------------------------------------------------------------

TEST(GatherReadTest, ScatteredSegmentsOneCompletion) {
  CheckedCluster cluster(config_1l_1g(2));
  constexpr std::size_t kRegion = 64 * 1024;
  const std::uint64_t remote = cluster.memory(1).alloc(kRegion);
  const std::uint64_t local = cluster.memory(0).alloc(kRegion);
  fill_pattern(cluster.memory(1), remote, kRegion, 9);
  fill_pattern(cluster.memory(0), local, kRegion, 0xee);  // must be overwritten

  cluster.spawn(0, "reader", [&](Endpoint& ep) {
    auto conn = ep.connect(1);
    // Three disjoint, out-of-order segments of different sizes.
    const std::vector<GatherSegment> segs = {
        {40000, local + 100, 7000},
        {0, local + 8000, 1428 * 3 + 17},
        {10000, local + 20000, 1},
    };
    auto h = conn.rdma_gather_read(segs, remote);
    h.wait();
    EXPECT_TRUE(h.test());
  });
  cluster.run();

  auto& m0 = cluster.memory(0);
  auto& m1 = cluster.memory(1);
  EXPECT_EQ(std::memcmp(m0.view(local + 100, 7000).data(),
                        m1.view(remote + 40000, 7000).data(), 7000), 0);
  EXPECT_EQ(std::memcmp(m0.view(local + 8000, 1428 * 3 + 17).data(),
                        m1.view(remote, 1428 * 3 + 17).data(), 1428 * 3 + 17),
            0);
  EXPECT_EQ(m0.view(local + 20000, 1)[0], m1.view(remote + 10000, 1)[0]);
}

TEST(GatherReadTest, SurvivesLossAndReordering) {
  ClusterConfig cfg = config_2lu_1g(2);
  cfg.topology.link.drop_prob = 0.05;
  CheckedCluster cluster(std::move(cfg));
  constexpr std::size_t kRegion = 128 * 1024;
  const std::uint64_t remote = cluster.memory(1).alloc(kRegion);
  const std::uint64_t local = cluster.memory(0).alloc(kRegion);
  fill_pattern(cluster.memory(1), remote, kRegion, 77);

  cluster.spawn(0, "reader", [&](Endpoint& ep) {
    auto conn = ep.connect(1);
    std::vector<GatherSegment> segs;
    for (std::uint32_t off = 0; off < kRegion; off += 16 * 1024) {
      segs.push_back({off, local + off, 16 * 1024});
    }
    conn.rdma_gather_read(segs, remote).wait();
  });
  cluster.run();
  EXPECT_TRUE(check_pattern(cluster.memory(0), local, kRegion, 77));
}

// ---------------------------------------------------------------------------
// Tagged notification fairness
// ---------------------------------------------------------------------------

// Interleave default-channel (tag 0, what the DSM uses) and collective-tag
// notifications: an untagged wait must drain strictly in arrival order
// across tags (no channel starves the other), while tagged waits must see
// per-tag FIFO order without disturbing other tags' queues.
TEST(NotificationTagTest, FifoAcrossTagsAndPerTag) {
  CheckedCluster cluster(config_1l_1g(2));  // in-order: arrival order = send order
  const std::uint64_t dst = cluster.memory(0).alloc(4096);
  const std::uint64_t src = cluster.memory(1).alloc(4096);

  const std::vector<std::uint8_t> order = {0, 1, 0, 0, 1, 1};
  cluster.spawn(1, "sender", [&](Endpoint& ep) {
    auto conn = ep.connect(0);
    // Phase 1: mixed tags, each op acknowledged before the next is sent, so
    // the receiver's queue order is exactly `order`.
    for (std::size_t i = 0; i < order.size(); ++i) {
      conn.rdma_write(dst + i * 8, src, 8,
                      kOpFlagNotify | op_tag_flags(order[i]))
          .wait();
    }
    // Phase 2: same pattern again for the per-tag checks, then a sentinel
    // on tag 5 marking "all enqueued".
    for (std::size_t i = 0; i < order.size(); ++i) {
      conn.rdma_write(dst + (8 + i) * 8, src, 8,
                      kOpFlagNotify | op_tag_flags(order[i]))
          .wait();
    }
    conn.rdma_write(dst, src, 8, kOpFlagNotify | op_tag_flags(5)).wait();
  });

  cluster.spawn(0, "receiver", [&](Endpoint& ep) {
    // Untagged waits drain in arrival order across tags.
    for (std::size_t i = 0; i < order.size(); ++i) {
      Notification n = ep.wait_notification();
      EXPECT_EQ(n.tag, order[i]) << "untagged wait broke FIFO at " << i;
      EXPECT_EQ(n.va, dst + i * 8);
    }
    // Wait for the sentinel: a tagged wait must skip (and not consume) the
    // queued tag-0/tag-1 notifications in front of it.
    Notification s = ep.wait_notification(5);
    EXPECT_EQ(s.tag, 5);
    // Per-tag FIFO: tag 1 first (leaving tag 0 untouched), then tag 0.
    std::vector<std::uint64_t> tag1_vas, tag0_vas;
    Notification n;
    while (ep.poll_notification(&n, 1)) tag1_vas.push_back(n.va);
    while (ep.poll_notification(&n, 0)) tag0_vas.push_back(n.va);
    std::vector<std::uint64_t> want1, want0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      (order[i] == 1 ? want1 : want0).push_back(dst + (8 + i) * 8);
    }
    EXPECT_EQ(tag1_vas, want1);
    EXPECT_EQ(tag0_vas, want0);
    EXPECT_FALSE(ep.poll_notification(&n));  // fully drained
  });
  cluster.run();
}

// ---------------------------------------------------------------------------
// Collective correctness, differential across algorithms
// ---------------------------------------------------------------------------

coll::CollConfig algo_set(int which) {
  coll::CollConfig cfg;
  cfg.max_data_bytes = 512 * 1024;
  switch (which) {
    case 0:  // production defaults
      break;
    case 1:  // tree-based all_reduce instead of ring
      cfg.all_reduce_algo = coll::CollAlgo::kBinomialTree;
      break;
    default:  // naive linear fallback for every primitive
      cfg.barrier_algo = coll::CollAlgo::kLinear;
      cfg.broadcast_algo = coll::CollAlgo::kLinear;
      cfg.reduce_algo = coll::CollAlgo::kLinear;
      cfg.all_reduce_algo = coll::CollAlgo::kLinear;
      cfg.all_to_all_algo = coll::CollAlgo::kLinear;
      break;
  }
  return cfg;
}

ClusterConfig topo(int which, int nodes) {
  switch (which) {
    case 0: return config_1l_1g(nodes);
    case 1: return config_2l_1g(nodes);
    default: return config_2lu_1g(nodes);
  }
}

// (algo set, topology, nodes)
using CollParams = std::tuple<int, int, int>;

std::string coll_param_name(const ::testing::TestParamInfo<CollParams>& info) {
  static const char* kAlgos[] = {"Default", "TreeAr", "Linear"};
  static const char* kTopos[] = {"1L1G", "2L1G", "2Lu1G"};
  return std::string(kAlgos[std::get<0>(info.param)]) +
         kTopos[std::get<1>(info.param)] + "N" +
         std::to_string(std::get<2>(info.param));
}

class CollectiveTest : public ::testing::TestWithParam<CollParams> {};

TEST_P(CollectiveTest, AllPrimitivesMatchExpectedValues) {
  const auto [algos, topology, n] = GetParam();
  CheckedCluster cluster(topo(topology, n));
  coll::CollDomain domain(cluster, algo_set(algos));

  constexpr std::uint32_t kBcastN = 3000;    // doubles
  constexpr std::uint32_t kReduceN = 2000;   // doubles
  constexpr std::uint32_t kArN = 40000;      // doubles, forces chunked puts
  constexpr std::uint32_t kBlock = 1504;     // all_to_all block bytes
  const int bcast_root = 1 % n;
  const int reduce_root = n - 1;

  // Symmetric user buffers (every node allocates in the same order).
  std::uint64_t bcast_va = 0, red_va = 0, ar_va = 0, arm_va = 0;
  std::uint64_t a2a_s = 0, a2a_r = 0, v_s = 0, v_r = 0;
  for (int i = 0; i < n; ++i) {
    proto::MemorySpace& mem = cluster.memory(i);
    bcast_va = mem.alloc(kBcastN * 8);
    red_va = mem.alloc(kReduceN * 8);
    ar_va = mem.alloc(kArN * 8);
    arm_va = mem.alloc(kArN * 8);
    a2a_s = mem.alloc(std::size_t{kBlock} * n);
    a2a_r = mem.alloc(std::size_t{kBlock} * n);
    v_s = mem.alloc(std::size_t{8} * 8 * n);
    v_r = mem.alloc(std::size_t{8} * 8 * n);
  }

  std::vector<std::unique_ptr<coll::Communicator>> comms;
  for (int i = 0; i < n; ++i) {
    comms.push_back(
        std::make_unique<coll::Communicator>(domain, cluster.endpoint(i)));
  }

  auto a2av_count = [n = n](int s, int d) {
    return static_cast<std::uint32_t>(8 * ((s + d) % 4));
  };

  for (int i = 0; i < n; ++i) {
    cluster.spawn(i, "coll" + std::to_string(i), [&, i](Endpoint& ep) {
      coll::Communicator& c = *comms[i];
      proto::MemorySpace& mem = ep.memory();

      // --- broadcast ---
      if (i == bcast_root) {
        double* b = mem.as<double>(bcast_va);
        for (std::uint32_t k = 0; k < kBcastN; ++k) b[k] = 1000.0 * i + k;
      }
      c.barrier();
      c.broadcast(bcast_va, kBcastN * 8, bcast_root);

      // --- reduce (sum of doubles to reduce_root) ---
      {
        double* r = mem.as<double>(red_va);
        for (std::uint32_t k = 0; k < kReduceN; ++k) r[k] = i + 1.0 * k;
      }
      c.barrier();
      c.reduce(red_va, kReduceN, coll::DType::kF64, coll::ReduceOp::kSum,
               reduce_root);

      // --- back-to-back all_reduces with no barrier between them (stress
      // the cross-collective token/staging ordering) ---
      {
        double* a = mem.as<double>(ar_va);
        for (std::uint32_t k = 0; k < kArN; ++k) a[k] = i + 0.5 * (k % 97);
        std::uint64_t* mx = mem.as<std::uint64_t>(arm_va);
        for (std::uint32_t k = 0; k < kArN; ++k) {
          mx[k] = static_cast<std::uint64_t>((i * 131 + k) % 1009);
        }
      }
      c.barrier();
      c.all_reduce(ar_va, kArN, coll::DType::kF64, coll::ReduceOp::kSum);
      c.all_reduce(arm_va, kArN, coll::DType::kU64, coll::ReduceOp::kMax);

      // --- all_to_all (fixed blocks) ---
      for (int d = 0; d < n; ++d) {
        fill_pattern(mem, a2a_s + std::uint64_t{d} * kBlock, kBlock,
                     static_cast<std::uint8_t>(i * 131 + d));
      }
      c.barrier();
      c.all_to_all(a2a_s, a2a_r, kBlock);

      // --- all_to_all_v (variable, includes zero-length blocks) ---
      std::vector<std::uint32_t> counts(n);
      std::uint64_t off = 0;
      for (int d = 0; d < n; ++d) {
        counts[d] = a2av_count(i, d);
        fill_pattern(mem, v_s + off, counts[d],
                     static_cast<std::uint8_t>(7 * i + d));
        off += counts[d];
      }
      c.barrier();
      const std::vector<std::uint32_t> matrix =
          c.all_to_all_v(v_s, v_r, counts);
      for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
          EXPECT_EQ(matrix[std::size_t{static_cast<std::size_t>(s)} * n + d],
                    a2av_count(s, d));
        }
      }
      c.barrier();

      // --- in-fiber verification ---
      const double* b = mem.as<const double>(bcast_va);
      for (std::uint32_t k = 0; k < kBcastN; ++k) {
        ASSERT_EQ(b[k], 1000.0 * bcast_root + k) << "bcast rank " << i;
      }
      const double* r = mem.as<const double>(red_va);
      for (std::uint32_t k = 0; k < kReduceN; ++k) {
        const double want = i == reduce_root
                                ? n * (1.0 * k) + n * (n - 1) / 2.0
                                : i + 1.0 * k;  // non-root untouched
        ASSERT_EQ(r[k], want) << "reduce rank " << i << " elem " << k;
      }
      const double* a = mem.as<const double>(ar_va);
      for (std::uint32_t k = 0; k < kArN; ++k) {
        const double want = n * (0.5 * (k % 97)) + n * (n - 1) / 2.0;
        ASSERT_EQ(a[k], want) << "all_reduce rank " << i << " elem " << k;
      }
      const std::uint64_t* mx = mem.as<const std::uint64_t>(arm_va);
      for (std::uint32_t k = 0; k < kArN; ++k) {
        std::uint64_t want = 0;
        for (int s = 0; s < n; ++s) {
          want = std::max(want,
                          static_cast<std::uint64_t>((s * 131 + k) % 1009));
        }
        ASSERT_EQ(mx[k], want) << "all_reduce max rank " << i << " elem " << k;
      }
      for (int s = 0; s < n; ++s) {
        ASSERT_TRUE(check_pattern(mem, a2a_r + std::uint64_t{s} * kBlock,
                                  kBlock,
                                  static_cast<std::uint8_t>(s * 131 + i)))
            << "all_to_all rank " << i << " from " << s;
      }
      std::uint64_t roff = 0;
      for (int s = 0; s < n; ++s) {
        ASSERT_TRUE(check_pattern(mem, v_r + roff, a2av_count(s, i),
                                  static_cast<std::uint8_t>(7 * s + i)))
            << "all_to_all_v rank " << i << " from " << s;
        roff += a2av_count(s, i);
      }
    });
  }
  cluster.run();

  // Sanity on the per-communicator instrumentation.
  EXPECT_EQ(comms[0]->counters().get("coll_barriers"), 6u);
  EXPECT_EQ(comms[0]->counters().get("coll_all_reduces"), 2u);
  EXPECT_GT(comms[0]->counters().get("coll_signals"), 0u);
  if (n > 1) EXPECT_GT(comms[0]->counters().get("coll_rounds"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgosTopologiesNodes, CollectiveTest,
    ::testing::Combine(::testing::Values(0, 1, 2),   // default / tree / linear
                       ::testing::Values(0, 1, 2),   // 1L-1G / 2L-1G / 2Lu-1G
                       ::testing::Values(2, 3, 8)),  // incl. non-power-of-two
    coll_param_name);

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

// Run a barrier / all-reduce / all-to-all-v mix and verify results; faults
// are injected by the caller via the cluster config.
void run_faulted_collectives(Cluster& cluster, int algos) {
  const int n = cluster.num_nodes();
  coll::CollConfig ccfg = algo_set(algos);
  ccfg.max_data_bytes = 128 * 1024;
  coll::CollDomain domain(cluster, ccfg);

  constexpr std::uint32_t kArN = 2048;  // doubles
  std::uint64_t ar_va = 0, v_s = 0, v_r = 0;
  for (int i = 0; i < n; ++i) {
    ar_va = cluster.memory(i).alloc(kArN * 8);
    v_s = cluster.memory(i).alloc(std::size_t{512} * n);
    v_r = cluster.memory(i).alloc(std::size_t{512} * n);
  }
  std::vector<std::unique_ptr<coll::Communicator>> comms;
  for (int i = 0; i < n; ++i) {
    comms.push_back(
        std::make_unique<coll::Communicator>(domain, cluster.endpoint(i)));
  }
  constexpr int kIters = 4;
  for (int i = 0; i < n; ++i) {
    cluster.spawn(i, "flt" + std::to_string(i), [&, i](Endpoint& ep) {
      coll::Communicator& c = *comms[i];
      proto::MemorySpace& mem = ep.memory();
      for (int it = 0; it < kIters; ++it) {
        double* a = mem.as<double>(ar_va);
        for (std::uint32_t k = 0; k < kArN; ++k) a[k] = i + 1.0 * it + k;
        c.barrier();
        c.all_reduce(ar_va, kArN, coll::DType::kF64, coll::ReduceOp::kSum);
        for (std::uint32_t k = 0; k < kArN; ++k) {
          ASSERT_EQ(a[k], n * (1.0 * it + k) + n * (n - 1) / 2.0)
              << "iter " << it << " rank " << i;
        }
        std::vector<std::uint32_t> counts(n);
        std::uint64_t off = 0;
        for (int d = 0; d < n; ++d) {
          counts[d] = 8 * ((i + d + it) % 5);
          fill_pattern(mem, v_s + off, counts[d],
                       static_cast<std::uint8_t>(i + d + it));
          off += counts[d];
        }
        c.all_to_all_v(v_s, v_r, counts);
        std::uint64_t roff = 0;
        for (int s = 0; s < n; ++s) {
          const std::uint32_t cnt = 8 * ((s + i + it) % 5);
          ASSERT_TRUE(check_pattern(mem, v_r + roff, cnt,
                                    static_cast<std::uint8_t>(s + i + it)))
              << "iter " << it << " rank " << i << " from " << s;
          roff += cnt;
        }
        c.barrier();
      }
    });
  }
  cluster.run();
}

// (algo set, topology, nodes)
class CollFaultTest : public ::testing::TestWithParam<CollParams> {};

TEST_P(CollFaultTest, SurvivesBurstLoss) {
  const auto [algos, topology, n] = GetParam();
  ClusterConfig cfg = topo(topology, n);
  cfg.topology.link.burst.enabled = true;
  cfg.topology.link.burst.p_good_to_bad = 0.02;
  cfg.topology.link.burst.p_bad_to_good = 0.2;
  cfg.topology.link.burst.drop_bad = 0.5;
  CheckedCluster cluster(std::move(cfg));
  run_faulted_collectives(cluster, algos);
}

INSTANTIATE_TEST_SUITE_P(
    BurstLoss, CollFaultTest,
    ::testing::Combine(::testing::Values(0, 2),      // default vs linear
                       ::testing::Values(0, 1, 2),   // all three topologies
                       ::testing::Values(2, 5, 16)),
    coll_param_name);

TEST(CollFaultTest, SurvivesRailOutageMidRun) {
  // One rail of the striped 2L fabric dies shortly into the run and comes
  // back later; every collective completes correctly through the outage.
  ClusterConfig cfg = config_2l_1g(4);
  cfg.topology.rail_outages.push_back(
      {/*rail=*/1, /*node=*/-1, /*start=*/sim::us(200), /*end=*/sim::ms(5)});
  CheckedCluster cluster(std::move(cfg));
  run_faulted_collectives(cluster, /*algos=*/0);
}

TEST(CollFaultTest, SurvivesSingleNodeCablePull) {
  ClusterConfig cfg = config_2lu_1g(5);
  cfg.topology.rail_outages.push_back(
      {/*rail=*/0, /*node=*/2, /*start=*/sim::us(100), /*end=*/sim::ms(2)});
  CheckedCluster cluster(std::move(cfg));
  run_faulted_collectives(cluster, /*algos=*/0);
}

// ---------------------------------------------------------------------------
// Fail-fast collectives: a rank declared dead by its peers must not hang
// ---------------------------------------------------------------------------

TEST(CollMemberTest, RankDeclaredDeadByEveryPeerExitsWithPeerFailure) {
  // The victim's egress goes dark long enough for every peer to declare it
  // Dead and abandon the barrier; its ingress keeps working, so its own view
  // never loses a peer. Once its egress is back, a peer's ack tells it that
  // it was declared dead. Its rank, still waiting in the barrier for signals
  // nobody will send, must then exit with PeerFailure instead of hanging.
  const int n = 4, victim = 2;
  CheckedCluster cluster(config_1l_1g(n));
  cluster.connect_all_mesh();  // every pair reachable in both directions
  cluster.network().uplink(victim, 0).faults().outages.push_back(
      {sim::ms(1), sim::us(4500)});
  member::MemberConfig m;
  m.retransmit_factor = 20;  // keep Dead(victim) in the peers' gossip
  member::Service svc(cluster, m);
  coll::CollDomain dom(cluster, {});

  std::vector<int> failed_on(n, -2);
  int done = 0;
  for (int node = 0; node < n; ++node) {
    cluster.spawn(node, "bar-" + std::to_string(node), [&, node](Endpoint& ep) {
      coll::Communicator comm(dom, ep);
      comm.set_membership(&svc.view(node));
      try {
        for (;;) comm.barrier();
      } catch (const coll::PeerFailure& f) {
        failed_on[node] = f.peer;
      }
      if (++done == n) svc.stop();
    });
  }
  cluster.run_for(sim::ms(50));

  EXPECT_EQ(done, n) << "a rank is still waiting in the barrier";
  for (int node = 0; node < n; ++node) {
    if (node != victim) {
      EXPECT_EQ(failed_on[node], victim) << "rank " << node;
    }
  }
  EXPECT_EQ(failed_on[victim], victim) << "the victim blames itself";
  EXPECT_GT(svc.counters(victim).get("member_self_declared_dead"), 0u);
}

}  // namespace
}  // namespace multiedge
