// RDMA-native partitioned key-value store served over the MultiEdge API.
//
// The store is the serving-system proving ground the ROADMAP asks for: a
// consistent-hash ring (ring.hpp) maps keys to a primary plus R-1 backups,
// every node hosts the bucket arrays and record slabs of ALL partitions in
// coll-style symmetric memory, and the two data paths are:
//
//  * GET — pure one-sided. The client hashes the key, rdma_reads the 64-byte
//    bucket entry (a count + up to K record-slot VAs) from the primary, then
//    rdma_gather_reads every candidate record slot in ONE gather round trip.
//    Each record carries a version word (odd = update in progress) and an
//    FNV-1a checksum over (seq, key_len, val_len, key, value); a torn or
//    stale snapshot fails validation and the client retries. No server CPU
//    is involved anywhere on this path.
//
//  * PUT/DELETE — tagged urgent-notify RPCs to the primary. The client
//    writes the request into its per-(node, slot) mailbox on the primary
//    (kOpFlagNotify | kOpFlagUrgent | kOpFlagBackwardFence, request tag);
//    the primary applies the mutation under the record version protocol,
//    replicates it through a notified-access rma::Window (one access epoch
//    of fenced urgent notified puts to every live backup; the epoch close is
//    the burst doorbell), waits for all replication acks — each ack a
//    notified put of the generation word on the ack window — and only then
//    writes the response into the
//    client's per-server response slot. Requests carry a per-client sequence
//    number; a (partition, client) last-seq table — maintained on every
//    replica — makes retried and duplicated requests idempotent, so a write
//    is applied exactly once even when a client re-sends it to a promoted
//    backup that already received it through replication.
//
// Failover: liveness comes from the SWIM-style gossip membership layer
// (src/member) instead of the original all-pairs heartbeat mesh. Each node
// probes one random peer per period, suspects (refutably) before marking
// Dead, and piggybacks membership updates on its protocol messages — O(1)
// probe load per node instead of O(n). A transient stall now only SUSPECTS
// a node: if it answers a direct or indirect probe (or its own frames keep
// arriving), the suspicion clears and it keeps its buckets — fixing the old
// detector's sticky false-positive down-marks. Only a suspicion that
// matures for the full timeout becomes Dead, and Dead stays sticky for the
// session (rejoin/resync is future work — ROADMAP). "Promotion" is then
// just the ring rule `primary = first live replica` evaluated locally by
// clients and servers alike. A deposed primary that comes back keeps
// believing in its own stale view, but no live node routes to it, and its
// late replication RPCs are rejected by the (partition, client) seq table
// plus the receiver's own "is the sender still primary?" check.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.hpp"
#include "kv/ring.hpp"
#include "member/member.hpp"
#include "rma/rma.hpp"
#include "sim/wait_queue.hpp"
#include "stats/counters.hpp"
#include "svc/svc.hpp"
#include "trace/histogram.hpp"

namespace multiedge::kv {

/// Operation status surfaced to callers.
enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kNoSpace = 2,        // bucket chain or partition slab full
  kWrongPrimary = 3,   // receiver does not consider itself primary (internal)
  kUnavailable = 4,    // no live replica / retry budget exhausted
  kRejected = 5,       // broker admission control shed the op (back off)
};

const char* status_str(Status s);

/// How client fibers reach remote primaries (the serving-tier axis bench/
/// svc_bench sweeps; servers always use the node-shared connection cache).
enum class ConnMode : std::uint8_t {
  /// One shared connection per (node, peer), all client fibers multiplexed
  /// onto it by the System's connection cache. The historical default.
  kShared = 0,
  /// Every client fiber owns private connections — the connection-per-client
  /// anti-pattern (RDMAvisor), kept as the overload-collapse baseline.
  kPerClient = 1,
  /// Client data ops go through the svc::Broker: pooled connections, window
  /// credits, admission control (ops can fail fast with Status::kRejected),
  /// per-tenant DRR. See src/svc/svc.hpp.
  kBroker = 2,
};

struct KvConfig {
  // --- placement ---
  int partitions = 32;      // fixed partitions on the consistent-hash ring
  int replication = 2;      // primary + R-1 backups
  int vnodes = 16;          // virtual nodes per server on the ring
  std::uint64_t seed = 0x5eedf00dull;

  // --- per-partition store geometry ---
  std::uint32_t buckets_per_partition = 64;
  std::uint32_t chain_slots = 7;        // K: max records per bucket
  std::uint32_t slots_per_partition = 256;  // record slab capacity
  std::uint32_t max_key_bytes = 32;
  std::uint32_t max_value_bytes = 128;

  // --- RPC plumbing ---
  int clients_per_node = 4;     // sizes mailbox arrays and response tags
  std::uint8_t req_tag = 8;     // notification tags (DSM=0, coll=1)
  std::uint8_t repl_tag = 9;
  std::uint8_t ack_tag = 10;
  std::uint8_t resp_tag_base = 16;  // + client slot
  /// Max requests the server drains per poll before flushing. With 1
  /// (default) each response is doorbelled individually — the pre-batching
  /// behavior on every configuration. With > 1 the server handles up to this
  /// many queued requests back-to-back, tags their responses kOpFlagBatched,
  /// and rings one doorbell for the burst — only meaningful together with
  /// ProtocolConfig::batch_submission.
  int server_burst = 1;

  // --- timing ---
  /// Membership probe period (one SWIM round per node per period).
  sim::Time heartbeat_period = sim::us(100);
  /// Unrefuted-suspicion maturity -> Dead (the membership suspect_timeout).
  sim::Time failure_timeout = sim::ms(2);
  sim::Time rpc_timeout = sim::us(800);     // resend/reroute a PUT/DELETE
  sim::Time get_timeout = sim::us(800);     // abandon a one-sided read
  int max_attempts = 64;                    // per-op retry budget
  /// Artificial pause inside the record-update critical section (version
  /// held odd), charged to the primary's app CPU. Widens the torn-read
  /// window so tests can deterministically exercise the GET retry path.
  sim::Time put_pause = 0;

  /// Client-side connection strategy (see ConnMode). Server-side traffic
  /// (replication, responses, acks) always uses the shared per-node cache.
  ConnMode conn_mode = ConnMode::kShared;
  /// Broker tuning, used when conn_mode == kBroker.
  svc::BrokerConfig broker;
};

class System;

/// Symmetric memory layout of the store. Every node allocates the same
/// regions in the same order (same invariant as coll::CollDomain), so a VA
/// computed here addresses the same object on every node.
class KvDomain {
 public:
  KvDomain(Cluster& cluster, const KvConfig& cfg, const Ring& ring);

  // Derived strides (64-aligned where a region is bulk-copied).
  std::uint32_t bucket_entry_bytes() const { return bucket_entry_bytes_; }
  std::uint32_t record_stride() const { return record_stride_; }
  std::uint32_t req_stride() const { return req_stride_; }

  // --- store regions ---
  std::uint64_t bucket_entry_va(int partition, std::uint32_t bucket) const {
    return buckets_va_ +
           (static_cast<std::uint64_t>(partition) * cfg_->buckets_per_partition +
            bucket) * bucket_entry_bytes_;
  }
  std::uint64_t slot_va(int partition, std::uint32_t slot) const {
    return slab_va_ +
           (static_cast<std::uint64_t>(partition) * cfg_->slots_per_partition +
            slot) * record_stride_;
  }
  /// Packed (seq << 8 | status) word of the exactly-once table.
  std::uint64_t seq_table_va(int partition, int client_node, int cslot) const {
    return seq_table_va_ +
           ((static_cast<std::uint64_t>(partition) * num_nodes_ + client_node) *
                cfg_->clients_per_node + cslot) * 8;
  }

  // --- RPC mailboxes ---
  /// Request slot of client (client_node, cslot), hosted on every server.
  std::uint64_t req_slot_va(int client_node, int cslot) const {
    return req_va_ + (static_cast<std::uint64_t>(client_node) *
                      cfg_->clients_per_node + cslot) * req_stride_;
  }
  /// Response slot for local client `cslot`, written by `server_node`.
  std::uint64_t resp_slot_va(int cslot, int server_node) const {
    return resp_va_ + (static_cast<std::uint64_t>(cslot) * num_nodes_ +
                       server_node) * resp_stride_;
  }
  /// Replication mailbox written by primary `src_node` (one in flight each).
  std::uint64_t repl_slot_va(int src_node) const {
    return repl_va_ + static_cast<std::uint64_t>(src_node) * req_stride_;
  }
  /// Replication-ack word written by backup `backup_node`.
  std::uint64_t ack_slot_va(int backup_node) const {
    return ack_va_ + static_cast<std::uint64_t>(backup_node) * 8;
  }

  // --- per-node scratch (sources of outbound writes) ---
  std::uint64_t ack_src_va() const { return ack_src_va_; }
  std::uint64_t resp_build_va() const { return resp_build_va_; }
  std::uint64_t repl_build_va() const { return repl_build_va_; }
  std::uint64_t req_build_va(int cslot) const {
    return req_build_va_ + static_cast<std::uint64_t>(cslot) * req_stride_;
  }
  /// Rotating one-sided GET landing buffers: bucket-entry image followed by
  /// K record-slot images. Rotation keeps a timed-out read's late completion
  /// from scribbling over the buffers of the current attempt.
  static constexpr int kGetBufSets = 8;
  std::uint64_t get_buf_va(int cslot, int set) const {
    return get_buf_va_ + (static_cast<std::uint64_t>(cslot) * kGetBufSets +
                          set) * get_buf_stride_;
  }
  std::uint32_t get_buf_stride() const { return get_buf_stride_; }

 private:
  const KvConfig* cfg_;
  int num_nodes_;
  std::uint32_t bucket_entry_bytes_ = 0;
  std::uint32_t record_stride_ = 0;
  std::uint32_t req_stride_ = 0;
  std::uint32_t resp_stride_ = 0;
  std::uint32_t get_buf_stride_ = 0;
  std::uint64_t buckets_va_ = 0;
  std::uint64_t slab_va_ = 0;
  std::uint64_t seq_table_va_ = 0;
  std::uint64_t req_va_ = 0;
  std::uint64_t resp_va_ = 0;
  std::uint64_t repl_va_ = 0;
  std::uint64_t ack_va_ = 0;
  std::uint64_t ack_src_va_ = 0;
  std::uint64_t resp_build_va_ = 0;
  std::uint64_t repl_build_va_ = 0;
  std::uint64_t req_build_va_ = 0;
  std::uint64_t get_buf_va_ = 0;
};

/// Mutual exclusion between the fibers of ONE node (server loop, local
/// clients) — cooperative fibers only yield at simulation points, so a
/// plain flag plus a wait queue suffices.
class FiberLock {
 public:
  void lock() {
    while (held_) q_.wait();
    held_ = true;
  }
  void unlock() {
    held_ = false;
    q_.notify_one();
  }

 private:
  bool held_ = false;
  sim::WaitQueue q_;
};

/// Per-node server: owns the node's slab allocator, applies mutations under
/// the record version protocol, replicates to live backups, and answers
/// RPCs. One instance per node, shared by the serve-loop fiber and any
/// co-located clients (local fast path), serialized by `lock_`.
class Server {
 public:
  Server(System& sys, int node);

  /// Serve loop: handles request and replication RPCs until System::stop().
  void serve(Endpoint& ep);

  /// Local fast path for a co-located client (primary == own node): same
  /// dedupe/apply/replicate/ack pipeline, no wire round trip for the RPC.
  Status execute_local(Endpoint& ep, std::uint32_t op, std::string_view key,
                       std::string_view value, std::uint64_t seq,
                       int client_node, int cslot, std::string* out);

  stats::Counters& counters() { return counters_; }
  const stats::Counters& counters() const { return counters_; }

 private:
  friend class Client;

  struct ApplyResult {
    Status status = Status::kOk;
    std::string value;  // local GET result
  };

  void handle_request(Endpoint& ep, const Notification& n);
  void handle_repl(Endpoint& ep, const rma::NotifyEvent& n);
  ApplyResult dispatch(Endpoint& ep, std::uint32_t op, std::string_view key,
                       std::string_view value, std::uint64_t seq,
                       int client_node, int cslot);
  /// Apply a mutation to the local store (version protocol). `pause` opts
  /// into the configured torn-read window (primary path only).
  Status apply(Endpoint& ep, std::uint32_t op, int partition,
               std::string_view key, std::string_view value,
               std::uint64_t seq, bool pause);
  Status lookup_local(Endpoint& ep, int partition, std::string_view key,
                      std::string* out);
  void replicate(Endpoint& ep, std::uint32_t op, int partition,
                 std::string_view key, std::string_view value,
                 std::uint64_t seq, int client_node, int cslot);
  void respond(Endpoint& ep, int client_node, int cslot, std::uint64_t seq,
               Status st);

  int find_in_bucket(int partition, std::uint64_t bucket_entry,
                     std::string_view key) const;  // index into chain, -1
  std::uint32_t alloc_slot(int partition);  // returns slot or UINT32_MAX

  System& sys_;
  int node_;
  FiberLock lock_;
  std::vector<std::vector<std::uint32_t>> free_slots_;  // [partition]
  std::vector<std::uint32_t> next_fresh_;               // [partition]
  std::uint32_t repl_gen_ = 0;  // stamps replication RPCs; acked by value
  rma::Window repl_win_;  // replication fan-out: notified puts on repl_tag
  rma::Window ack_win_;   // replication acks: notified puts on ack_tag
  stats::Counters counters_;
};

/// One issued client data operation, uniform across connection modes: either
/// a raw OpHandle (shared / per-client connections) or a brokered SvcOp.
struct ClientOpRef {
  OpHandle h;
  svc::SvcOpPtr s;
  bool valid() const { return h.valid() || s != nullptr; }
  /// Terminal: completed, or rejected by broker admission control.
  bool test() const { return s ? s->test() : h.test(); }
  bool rejected() const { return s != nullptr && s->rejected(); }
  /// Broker retry-after hint accompanying a rejection (0 otherwise).
  sim::Time retry_after() const { return s ? s->retry_after : 0; }
};

/// Per-fiber client handle, created by System::spawn_client.
class Client {
 public:
  Client(System& sys, Endpoint& ep, int cslot, svc::Tenant* tenant = nullptr);

  Status get(std::string_view key, std::string* out);
  Status put(std::string_view key, std::string_view value);
  Status del(std::string_view key);

  /// Sleep for `t` of simulated time without occupying the node's app core
  /// (paced load generators, think-time between requests).
  void pause(sim::Time t);

  int node() const { return node_; }
  int cslot() const { return cslot_; }
  stats::Counters& counters() { return counters_; }
  trace::LatencyHistogram& get_hist() { return get_hist_; }
  trace::LatencyHistogram& put_hist() { return put_hist_; }

  /// Broker retry-after hint attached to the most recent kRejected status:
  /// how long the broker suggests backing off before resubmitting (derived
  /// from the depth of the queue that shed the op). 0 if the last rejection
  /// carried no hint or no op was rejected yet.
  sim::Time last_retry_after() const { return last_retry_after_; }

 private:
  /// Uniform shed path: record the rejection + its retry-after hint.
  Status shed(const ClientOpRef& r);
  Status rpc(std::uint32_t op, std::string_view key, std::string_view value);
  Status one_sided_get(std::string_view key, std::string* out);
  /// Pick a GET landing-buffer set with no read still in flight (a timed-out
  /// read completing late must never scribble over the set being validated
  /// or hand the parser a stale-but-well-formed bucket snapshot).
  int acquire_get_buf();
  /// Validate one bucket image + candidate slots; returns kOk/kNotFound or
  /// kWrongPrimary as the "torn, retry" sentinel.
  Status validate_snapshot(const std::byte* bucket, const std::byte* slots,
                           std::string_view key, std::string* out);

  // Connection-mode-uniform issue path (ConnMode). Brokered ops may come
  // back already rejected (admission control) — callers must check.
  ClientOpRef issue_write(int peer, std::uint64_t remote_va,
                          std::uint64_t local_va, std::uint32_t bytes,
                          std::uint16_t flags);
  ClientOpRef issue_read(int peer, std::uint64_t local_va,
                         std::uint64_t remote_va, std::uint32_t bytes,
                         std::uint16_t flags);
  ClientOpRef issue_gather_read(int peer, std::vector<GatherSegment> segs,
                                std::uint64_t remote_base, std::uint16_t flags);
  /// Direct connection for kShared (node cache) / kPerClient (private, lazy).
  Connection& direct_conn(int peer);

  System& sys_;
  Endpoint& ep_;
  int node_;
  int cslot_;
  svc::Tenant* tenant_;             // kBroker mode only
  std::vector<Connection> own_conns_;  // kPerClient mode only, lazy
  std::uint64_t seq_ = 0;
  sim::Time last_retry_after_ = 0;  // hint from the latest broker rejection
  std::array<ClientOpRef, KvDomain::kGetBufSets> get_pending_{};
  stats::Counters counters_;
  trace::LatencyHistogram get_hist_;
  trace::LatencyHistogram put_hist_;
};

/// Host-memory barrier for rendezvous between fibers of one cluster (used
/// by benches/tests to delimit measured phases).
class HostBarrier {
 public:
  void arrive_and_wait(int expected);

 private:
  int count_ = 0;
  std::uint64_t gen_ = 0;
  sim::WaitQueue q_;
};

/// Cluster-wide KV system: allocates the symmetric domain, spawns a server
/// loop on every node, and wraps client fibers. Liveness comes from a
/// member::Service — pass one in to share it with other subsystems (coll,
/// DSM), or let the System own a private one configured from
/// heartbeat_period / failure_timeout. Construct host-side (before
/// Cluster::run), after any other symmetric allocations; an external
/// membership service must be constructed BEFORE the System (allocation
/// order is part of the symmetric-VA contract). The service fibers exit
/// when every client spawned through spawn_client has returned (or on an
/// explicit stop()); an owned membership service is stopped with them.
class System {
 public:
  explicit System(Cluster& cluster, KvConfig cfg = {},
                  member::Service* membership = nullptr);

  Cluster& cluster() { return cluster_; }
  const KvConfig& config() const { return cfg_; }
  const Ring& ring() const { return ring_; }
  const KvDomain& domain() const { return domain_; }
  Server& server(int node) { return *nodes_[node]->server; }
  /// This node's membership view (the failure "detector" the data paths
  /// consult: is_down == Dead; suspicion is refutable and NOT down).
  member::View& detector(int node) { return member_->view(node); }
  member::Service& membership() { return *member_; }
  /// The client-path connection broker (nullptr unless conn_mode==kBroker).
  svc::Broker* broker() { return broker_.get(); }

  /// Spawn a client fiber on `node`; client slots are assigned in spawn
  /// order per node (must stay below KvConfig::clients_per_node).
  void spawn_client(int node, std::string name,
                    std::function<void(Client&)> body);

  void stop();
  bool stopped() const { return stop_; }

  /// All KV-level counters (servers, clients) merged.
  stats::Counters aggregate_counters() const;

 private:
  friend class Server;
  friend class Client;

  struct NodeCtx {
    std::unique_ptr<Server> server;
    std::vector<SharedConnection> conns;  // shared per-node connection cache
    sim::WaitQueue conn_wait;
    int next_cslot = 0;
    stats::Counters client_counters;    // merged at client fiber exit
  };

  Connection& conn_to(Endpoint& ep, int peer);

  Cluster& cluster_;
  KvConfig cfg_;
  Ring ring_;
  KvDomain domain_;
  std::unique_ptr<member::Service> owned_member_;
  member::Service* member_;
  std::unique_ptr<svc::Broker> broker_;  // conn_mode == kBroker only
  std::vector<std::unique_ptr<NodeCtx>> nodes_;
  bool stop_ = false;
  int clients_active_ = 0;
  bool any_client_spawned_ = false;
};

}  // namespace multiedge::kv
