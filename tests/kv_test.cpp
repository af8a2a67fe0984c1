// src/kv tests: consistent-hash ring unit checks, differential correctness of
// the partitioned store against a host-side reference map across node counts
// and topologies, the one-sided GET torn-read retry protocol, replication
// under Gilbert-Elliott burst loss, and failover (backup promotion) across a
// scheduled rail outage — all with the protocol invariant checker armed.
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "kv/kv.hpp"

namespace multiedge {
namespace {

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

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(KvRingTest, ReplicaListsAreDistinctValidAndStable) {
  const kv::Ring ring(5, 32, 3, 8, 42);
  const kv::Ring same(5, 32, 3, 8, 42);
  EXPECT_EQ(ring.replication(), 3);
  for (int p = 0; p < ring.partitions(); ++p) {
    const auto& reps = ring.replicas(p);
    ASSERT_EQ(reps.size(), 3u) << "partition " << p;
    std::set<int> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), 3u) << "partition " << p;
    for (int r : reps) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 5);
      EXPECT_TRUE(ring.is_replica(p, r));
    }
    EXPECT_EQ(reps, same.replicas(p)) << "ring must be seed-deterministic";
  }
}

TEST(KvRingTest, PartitionOfCoversAllPartitions) {
  const kv::Ring ring(4, 16, 2, 8, 7);
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 20000; ++i) {
    const int p = ring.partition_of(kv::fnv1a64("key-" + std::to_string(i)));
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 16);
    ++hits[p];
  }
  for (int p = 0; p < 16; ++p) {
    EXPECT_GT(hits[p], 0) << "partition " << p << " never chosen";
  }
}

TEST(KvRingTest, PrimarySkipsDownReplicas) {
  const kv::Ring ring(6, 8, 3, 8, 3);
  for (int p = 0; p < 8; ++p) {
    const auto& reps = ring.replicas(p);
    std::vector<bool> down(6, false);
    EXPECT_EQ(ring.primary_of(p, down), reps[0]);
    down[reps[0]] = true;
    EXPECT_EQ(ring.primary_of(p, down), reps[1]);
    down[reps[1]] = true;
    EXPECT_EQ(ring.primary_of(p, down), reps[2]);
    down[reps[2]] = true;
    EXPECT_EQ(ring.primary_of(p, down), -1);
  }
}

TEST(KvRingTest, ReplicationClampedToClusterSize) {
  const kv::Ring ring(2, 8, 3, 4, 1);
  EXPECT_EQ(ring.replication(), 2);
  for (int p = 0; p < 8; ++p) EXPECT_EQ(ring.replicas(p).size(), 2u);
}

// ---------------------------------------------------------------------------
// Differential correctness vs. a host-side reference map
// ---------------------------------------------------------------------------

ClusterConfig kv_topo(int which, int nodes) {
  switch (which) {
    case 0: return config_1l_1g(nodes);
    case 1: return config_2l_1g(nodes);
    default: return config_1l_10g(nodes);
  }
}

struct OpSpec {
  int op;  // 0=get 1=put 2=del
  std::string key;
  std::string value;       // put only
  kv::Status want;
  std::string want_value;  // successful gets only
};

// Per-client deterministic op tape over a private keyspace, with expected
// results precomputed against a reference std::map. Disjoint keyspaces make
// the final state independent of cross-client interleaving.
std::vector<OpSpec> make_tape(int client_id, int ops, std::mt19937& rng) {
  std::vector<OpSpec> tape;
  std::map<std::string, std::string> ref;
  const int keys = 6;
  auto key_of = [&](int j) {
    return "c" + std::to_string(client_id) + "-k" + std::to_string(j);
  };
  for (int i = 0; i < ops; ++i) {
    const int j = static_cast<int>(rng() % keys);
    const std::string k = key_of(j);
    OpSpec s;
    s.key = k;
    switch (rng() % 4) {
      case 0:  // get
        s.op = 0;
        if (auto it = ref.find(k); it != ref.end()) {
          s.want = kv::Status::kOk;
          s.want_value = it->second;
        } else {
          s.want = kv::Status::kNotFound;
        }
        break;
      case 3:  // delete
        s.op = 2;
        s.want = ref.erase(k) ? kv::Status::kOk : kv::Status::kNotFound;
        break;
      default:  // put (insert or overwrite)
        s.op = 1;
        s.value = "v" + std::to_string(client_id) + "." + std::to_string(i) +
                  std::string(rng() % 60, 'x');
        s.want = kv::Status::kOk;
        ref[k] = s.value;
        break;
    }
    tape.push_back(std::move(s));
  }
  // Verification phase: read back the whole keyspace plus one absent key.
  for (int j = 0; j < keys; ++j) {
    OpSpec s;
    s.op = 0;
    s.key = key_of(j);
    if (auto it = ref.find(s.key); it != ref.end()) {
      s.want = kv::Status::kOk;
      s.want_value = it->second;
    } else {
      s.want = kv::Status::kNotFound;
    }
    tape.push_back(std::move(s));
  }
  tape.push_back(
      {0, "absent-" + std::to_string(client_id), "", kv::Status::kNotFound, ""});
  return tape;
}

void run_tape(kv::Client& c, const std::vector<OpSpec>& tape) {
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const OpSpec& s = tape[i];
    std::string got;
    kv::Status st;
    switch (s.op) {
      case 0: st = c.get(s.key, &got); break;
      case 1: st = c.put(s.key, s.value); break;
      default: st = c.del(s.key); break;
    }
    ASSERT_EQ(st, s.want) << "op " << i << " key " << s.key << " got "
                          << kv::status_str(st);
    if (s.op == 0 && s.want == kv::Status::kOk) {
      ASSERT_EQ(got, s.want_value) << "op " << i << " key " << s.key;
    }
  }
}

using KvParams = std::tuple<int, int>;  // (topology, nodes)

std::string kv_param_name(const ::testing::TestParamInfo<KvParams>& info) {
  static const char* kTopos[] = {"1L1G", "2L1G", "1L10G"};
  return std::string(kTopos[std::get<0>(info.param)]) + "N" +
         std::to_string(std::get<1>(info.param));
}

class KvDifferentialTest : public ::testing::TestWithParam<KvParams> {};

TEST_P(KvDifferentialTest, MatchesReferenceMap) {
  const auto [topology, n] = GetParam();
  CheckedCluster cluster(kv_topo(topology, n));
  kv::KvConfig cfg;
  cfg.clients_per_node = 2;
  kv::System sys(cluster, cfg);

  std::mt19937 rng(1234 + 17 * topology + n);
  std::vector<std::vector<OpSpec>> tapes;
  for (int node = 0; node < n; ++node) {
    for (int c = 0; c < cfg.clients_per_node; ++c) {
      tapes.push_back(make_tape(static_cast<int>(tapes.size()), 24, rng));
    }
  }
  for (int node = 0; node < n; ++node) {
    for (int c = 0; c < cfg.clients_per_node; ++c) {
      const auto& tape = tapes[node * cfg.clients_per_node + c];
      sys.spawn_client(node, "cli", [&tape](kv::Client& cl) {
        run_tape(cl, tape);
      });
    }
  }
  cluster.run();

  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_puts_applied"), 0u);
  EXPECT_GT(agg.get("kv_repl_acked"), 0u);  // R=2: every put replicated
  EXPECT_EQ(agg.get("kv_peers_marked_down"), 0u);  // no failures injected
}

INSTANTIATE_TEST_SUITE_P(TopologiesNodes, KvDifferentialTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(2, 5, 16)),
                         kv_param_name);

// kShared: client fibers racing their first op to the same remote primary
// share ONE lazily opened connection — the racers park on the node's wait
// queue until the first handshake completes instead of opening duplicates.
TEST(KvConnTest, RacingSharedClientsOpenOneConnection) {
  constexpr int kClients = 4;
  CheckedCluster cluster(config_2l_1g(2));
  kv::KvConfig cfg;
  cfg.replication = 1;  // no replication traffic between the two servers
  cfg.clients_per_node = kClients;
  // Membership opens a connection of its own when it probes a peer it has
  // none to. With a 10 s probe period its first round comes long after the
  // race, so every connection node 0 initiates below is the KV layer's.
  cfg.heartbeat_period = sim::sec(10);
  cfg.failure_timeout = sim::sec(20);
  kv::System sys(cluster, cfg);

  std::string key;  // primary on node 1
  for (int i = 0; key.empty() && i < 10000; ++i) {
    std::string k = "race-" + std::to_string(i);
    if (sys.ring().replicas(sys.ring().partition_of(kv::fnv1a64(k)))[0] == 1) {
      key = k;
    }
  }
  ASSERT_FALSE(key.empty());

  for (int c = 0; c < kClients; ++c) {
    sys.spawn_client(0, "cli", [&key](kv::Client& cl) {
      std::string got;
      EXPECT_EQ(cl.get(key, &got), kv::Status::kNotFound);
    });
  }
  cluster.run();

  ASSERT_EQ(sys.membership().counters(0).get("member_msgs_sent"), 0u);
  int kv_conns = 0;
  for (const auto& c : cluster.engine(0).connections()) {
    if (c->initiator() && c->peer_node() == 1) ++kv_conns;
  }
  EXPECT_EQ(kv_conns, 1);
  EXPECT_EQ(sys.aggregate_counters().get("kv_gets"),
            static_cast<std::uint64_t>(kClients));
}

// ---------------------------------------------------------------------------
// Torn-read retry: one-sided GETs racing in-place PUTs
// ---------------------------------------------------------------------------

TEST(KvTornReadTest, OneSidedGetRetriesThroughInPlaceUpdates) {
  CheckedCluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  cfg.replication = 1;        // isolate the read/update race
  cfg.clients_per_node = 1;
  cfg.put_pause = sim::us(30);  // widen the odd-version window
  kv::System sys(cluster, cfg);

  // A key whose primary is node 1, so node 0 reads it one-sided.
  std::string key;
  for (int i = 0;; ++i) {
    key = "torn-k" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(key));
    if (sys.ring().replicas(p)[0] == 1) break;
  }
  const std::string a(100, 'A'), b(100, 'B');
  constexpr int kPuts = 200;
  bool writer_done = false;
  kv::HostBarrier start;

  sys.spawn_client(1, "writer", [&](kv::Client& c) {
    ASSERT_EQ(c.put(key, a), kv::Status::kOk);
    start.arrive_and_wait(2);
    for (int i = 0; i < kPuts; ++i) {
      ASSERT_EQ(c.put(key, i % 2 ? b : a), kv::Status::kOk);
      // Think time between updates: without it the widened odd-version
      // windows tile the timeline and every reader snapshot lands torn.
      c.pause(sim::us(100));
    }
    writer_done = true;
  });
  sys.spawn_client(0, "reader", [&](kv::Client& c) {
    start.arrive_and_wait(2);
    std::uint64_t reads = 0;
    while (!writer_done) {
      std::string got;
      ASSERT_EQ(c.get(key, &got), kv::Status::kOk);
      // Every successful read must be a clean snapshot: one of the two
      // values in full, never a mix.
      ASSERT_TRUE(got == a || got == b) << "torn value leaked: " << got;
      ++reads;
    }
    EXPECT_GT(reads, 50u);
  });
  cluster.run();

  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_get_torn"), 0u)
      << "the race window was never observed — the retry path is untested";
  EXPECT_GT(agg.get("kv_get_retries"), 0u);
}

// ---------------------------------------------------------------------------
// Replication under Gilbert-Elliott burst loss
// ---------------------------------------------------------------------------

TEST(KvFaultTest, ReplicationSurvivesBurstLoss) {
  ClusterConfig ccfg = config_2l_1g(4);
  ccfg.topology.link.burst.enabled = true;
  ccfg.topology.link.burst.p_good_to_bad = 0.02;
  ccfg.topology.link.burst.p_bad_to_good = 0.2;
  ccfg.topology.link.burst.drop_bad = 0.5;
  CheckedCluster cluster(std::move(ccfg));
  kv::KvConfig cfg;
  cfg.clients_per_node = 1;
  // Bursts stall heartbeats too; a generous timeout keeps the detector from
  // declaring false deaths (failover under real outages is tested below).
  cfg.failure_timeout = sim::sec(1);
  kv::System sys(cluster, cfg);

  kv::HostBarrier barrier;
  for (int node = 0; node < 4; ++node) {
    sys.spawn_client(node, "cli", [&barrier, node](kv::Client& c) {
      const std::string pfx = "n" + std::to_string(node) + "-";
      for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(c.put(pfx + std::to_string(i),
                        "val" + std::to_string(node * 100 + i)),
                  kv::Status::kOk);
      }
      barrier.arrive_and_wait(4);
      for (int i = 0; i < 20; ++i) {
        std::string got;
        ASSERT_EQ(c.get(pfx + std::to_string(i), &got), kv::Status::kOk);
        ASSERT_EQ(got, "val" + std::to_string(node * 100 + i));
      }
    });
  }
  cluster.run();

  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_repl_acked"), 0u);
  EXPECT_GT(agg.get("kv_repl_applied"), 0u);
  EXPECT_EQ(agg.get("kv_peers_marked_down"), 0u);
}

// ---------------------------------------------------------------------------
// Failover: scheduled rail outage, backup promotion, exactly-once writes
// ---------------------------------------------------------------------------

TEST(KvFaultTest, BackupPromotionAcrossRailOutage) {
  constexpr int kN = 5;
  ClusterConfig ccfg = config_1l_1g(kN);
  // Node 1 loses its only rail at 4ms and stays dark well past the end of
  // client activity: a full node-silence failure from the cluster's view.
  ccfg.topology.rail_outages.push_back(
      {/*rail=*/0, /*node=*/1, /*start=*/sim::ms(4), /*end=*/sim::sec(1)});
  CheckedCluster cluster(std::move(ccfg));

  kv::KvConfig cfg;
  cfg.replication = 3;
  cfg.clients_per_node = 1;
  cfg.heartbeat_period = sim::us(100);
  cfg.failure_timeout = sim::ms(1);
  kv::System sys(cluster, cfg);

  // Keys that will fail over (primary = node 1) and keys that won't.
  std::vector<std::string> doomed, safe;
  for (int i = 0; doomed.size() < 8 || safe.size() < 8; ++i) {
    const std::string k = "fo-k" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(k));
    if (sys.ring().replicas(p)[0] == 1) {
      if (doomed.size() < 8) doomed.push_back(k);
    } else if (safe.size() < 8) {
      safe.push_back(k);
    }
  }
  auto all_keys = doomed;
  all_keys.insert(all_keys.end(), safe.begin(), safe.end());

  // Clients live on surviving nodes only; node 1 hosts no client (its own
  // clients would be partitioned with it, which is not what this tests).
  kv::HostBarrier loaded;
  sys.spawn_client(0, "loader", [&](kv::Client& c) {
    for (const auto& k : all_keys) {
      ASSERT_EQ(c.put(k, "v0-" + k), kv::Status::kOk);  // replicated 3-way
    }
    loaded.arrive_and_wait(3);
    // Sleep through the cable pull, then rewrite everything: writes to
    // doomed partitions must re-route to the promoted backup.
    c.counters();  // no-op; keep the fiber shape obvious
    for (const auto& k : all_keys) {
      ASSERT_EQ(c.put(k, "v1-" + k), kv::Status::kOk);
    }
    for (const auto& k : all_keys) {
      std::string got;
      ASSERT_EQ(c.get(k, &got), kv::Status::kOk) << k;
      ASSERT_EQ(got, "v1-" + k) << k;
    }
  });
  for (int node : {2, 3}) {
    sys.spawn_client(node, "getter", [&, node](kv::Client& c) {
      loaded.arrive_and_wait(3);
      // Hammer reads from other nodes through the outage window; every
      // successful read must be one of the two committed values.
      for (int round = 0; round < 30; ++round) {
        for (const auto& k : all_keys) {
          std::string got;
          const kv::Status st = c.get(k, &got);
          ASSERT_EQ(st, kv::Status::kOk) << k << " round " << round;
          ASSERT_TRUE(got == "v0-" + k || got == "v1-" + k)
              << k << " -> " << got;
        }
        (void)node;
      }
    });
  }
  cluster.run();

  // Every surviving node's detector must have declared node 1 dead.
  for (int node : {0, 2, 3, 4}) {
    EXPECT_TRUE(sys.detector(node).is_down(1)) << "node " << node;
  }
  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_GT(agg.get("kv_peers_marked_down"), 0u);
  // The reroute machinery actually fired: timeouts or wrong-primary bounces.
  EXPECT_GT(agg.get("kv_rpc_timeouts") + agg.get("kv_get_timeouts") +
                agg.get("kv_wrong_primary"),
            0u);
  EXPECT_GT(agg.get("kv_repl_acked"), 0u);
}

// ---------------------------------------------------------------------------
// Regression: a flapping-but-alive node must NOT be marked down
// ---------------------------------------------------------------------------
// The pre-SWIM mesh detector marked a peer down after one missed heartbeat
// window and the mark was sticky forever — a brief cable wiggle permanently
// evicted a healthy node from every ring. With membership, a short outage
// only raises a refutable suspicion: once the node answers again, the
// suspicion clears everywhere and it keeps serving its buckets.

TEST(KvFaultTest, FlappingNodeKeepsItsBuckets) {
  constexpr int kN = 4;
  ClusterConfig ccfg = config_1l_1g(kN);
  // Node 1 drops off the network for 3ms — much longer than the old mesh
  // failure window, much shorter than the suspicion maturity below.
  ccfg.topology.rail_outages.push_back(
      {/*rail=*/0, /*node=*/1, /*start=*/sim::ms(3), /*end=*/sim::ms(6)});
  CheckedCluster cluster(std::move(ccfg));

  kv::KvConfig cfg;
  cfg.replication = 2;
  cfg.clients_per_node = 1;
  cfg.heartbeat_period = sim::us(200);
  cfg.failure_timeout = sim::ms(15);  // suspicion maturity >> the outage
  kv::System sys(cluster, cfg);

  // Keys whose primary is the flapping node.
  std::vector<std::string> owned;
  for (int i = 0; owned.size() < 6; ++i) {
    const std::string k = "flap-k" + std::to_string(i);
    const int p = sys.ring().partition_of(kv::fnv1a64(k));
    if (sys.ring().replicas(p)[0] == 1) owned.push_back(k);
  }

  sys.spawn_client(0, "cli", [&](kv::Client& c) {
    for (const auto& k : owned) {
      ASSERT_EQ(c.put(k, "pre-" + k), kv::Status::kOk);
    }
    // Sleep across the outage AND past the point where the old sticky
    // detector would have declared node 1 dead many times over.
    c.pause(sim::ms(20));
    for (const auto& k : owned) {
      std::string got;
      ASSERT_EQ(c.get(k, &got), kv::Status::kOk) << k;
      ASSERT_EQ(got, "pre-" + k) << k;  // still served by node 1's buckets
      ASSERT_EQ(c.put(k, "post-" + k), kv::Status::kOk) << k;
    }
  });
  cluster.run();

  // Nobody ever promoted a backup: the flap never became a down-mark.
  for (int node = 0; node < kN; ++node) {
    EXPECT_FALSE(sys.detector(node).is_down(1)) << "node " << node;
    EXPECT_EQ(sys.detector(node).num_down(), 0) << "node " << node;
  }
  const stats::Counters agg = sys.aggregate_counters();
  EXPECT_EQ(agg.get("kv_peers_marked_down"), 0u);
  const stats::Counters mem = sys.membership().aggregate_counters();
  EXPECT_EQ(mem.get("member_dead_marks"), 0u);
  EXPECT_GT(mem.get("member_suspects"), 0u)
      << "the outage was never even noticed — the scenario is too gentle to "
         "regress the sticky-down bug";
}

// ---------------------------------------------------------------------------
// Capacity: chain overflow, delete/free, slot reuse
// ---------------------------------------------------------------------------

TEST(KvCapacityTest, NoSpaceDeleteAndSlotReuse) {
  CheckedCluster cluster(config_1l_1g(2));
  kv::KvConfig cfg;
  cfg.partitions = 1;
  cfg.buckets_per_partition = 1;  // every key shares the one bucket chain
  cfg.chain_slots = 2;
  cfg.slots_per_partition = 4;
  cfg.replication = 1;
  cfg.vnodes = 4;
  cfg.clients_per_node = 1;
  kv::System sys(cluster, cfg);

  const int primary = sys.ring().replicas(0)[0];
  sys.spawn_client(1 - primary, "cli", [&](kv::Client& c) {
    ASSERT_EQ(c.put("k1", "v1"), kv::Status::kOk);
    ASSERT_EQ(c.put("k2", "v2"), kv::Status::kOk);
    ASSERT_EQ(c.put("k3", "v3"), kv::Status::kNoSpace);  // chain full
    ASSERT_EQ(c.get("k3", nullptr), kv::Status::kNotFound);
    ASSERT_EQ(c.del("k1"), kv::Status::kOk);
    ASSERT_EQ(c.del("k1"), kv::Status::kNotFound);
    ASSERT_EQ(c.put("k3", "v3"), kv::Status::kOk);  // freed slot reused
    std::string got;
    ASSERT_EQ(c.get("k3", &got), kv::Status::kOk);
    ASSERT_EQ(got, "v3");
    ASSERT_EQ(c.put("k2", "v2b"), kv::Status::kOk);  // in-place overwrite
    ASSERT_EQ(c.get("k2", &got), kv::Status::kOk);
    ASSERT_EQ(got, "v2b");
    ASSERT_EQ(c.get("k1", nullptr), kv::Status::kNotFound);
  });
  cluster.run();

  EXPECT_GT(sys.aggregate_counters().get("kv_no_space"), 0u);
  EXPECT_GT(sys.aggregate_counters().get("kv_deletes_applied"), 0u);
}

}  // namespace
}  // namespace multiedge
