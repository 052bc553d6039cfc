#pragma once
// Control plane of the multi-process solver service (DESIGN.md section 14).
//
// ClusterCoordinator drives one solve across N worker daemons, one shard
// each. It holds one TCP connection per worker and carries only the control
// plane; the workers link to each other directly and send their x blocks
// on those links. Per solve it
//
//   1. connects to every endpoint with jittered exponential backoff
//      (util/backoff) and handshakes the shard assignment; each worker's
//      hello lists the setup keys it caches and names its data port,
//   2. sends each worker one kSolveRequest: the setup key + b + x0 + solver
//      options, every shard's data endpoint, a fresh link nonce and the
//      link deadline (connect_timeout_ms), plus the serialized hierarchy
//      when that worker's hello did not list the key -- either way every
//      worker holds identical state,
//   3. tracks liveness (heartbeat recency and connection EOF); a worker
//      declared dead gets kPeerDead broadcast to the survivors, whose
//      gates and BSP waits then exempt it (Criterion-2 across processes:
//      the dead shard's rows freeze, nobody deadlocks). A halo frame on a
//      coordinator connection is a protocol violation,
//   4. assembles the result: owned blocks from each kSolveDone, the initial
//      block x0 for dead shards, and the true final residual computed
//      against the coordinator's own copy of the operator.
//
// ClusterRouter sits in front: it places each solve on a subset of the
// worker fleet with the consistent-hash ring from shard/router.hpp keyed by
// matrix fingerprint, so repeated solves of the same operator land on the
// same workers (their setup caches stay warm) and resizing the fleet remaps
// only ~1/N of the key space.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "multigrid/additive.hpp"
#include "multigrid/setup.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "shard/router.hpp"
#include "util/backoff.hpp"

namespace asyncmg {

class TelemetrySink;

struct ClusterOptions {
  /// One worker per shard; shard id = position in this list.
  std::vector<Endpoint> endpoints;
  /// Bounds each dial and handshake, and is every solve's link deadline:
  /// a peer link not up this long after a worker's request arrives counts
  /// as a peer dead from round 0.
  int connect_timeout_ms = 2000;
  /// Connection attempts per worker before the solve fails; attempts are
  /// separated by the jittered exponential backoff below.
  int connect_attempts = 10;
  BackoffOptions backoff;
  /// A worker whose last heartbeat (or any frame) is older than this is
  /// declared dead mid-solve.
  double heartbeat_timeout_ms = 2000.0;
  /// Halo payload width on the peer links (fp32 halves the data-plane
  /// bytes).
  WireWidth width = WireWidth::kF64;
  /// Coordinator-side counters under "net.cluster.*". Not owned.
  TelemetrySink* telemetry = nullptr;

  /// Throws std::invalid_argument with a field-naming message on the first
  /// invalid setting.
  void validate() const;
};

struct ClusterSolveOptions {
  /// Deterministic BSP rounds (bitwise equal to the in-process oracle) vs
  /// free-running asynchronous rounds.
  bool bsp = true;
  int t_max = 20;
  int max_lag = 3;
  std::uint64_t seed = 1;
  AdditiveOptions additive;
  /// Per-shard crash hook forwarded to the workers (empty = none); shard i
  /// drops its connection after crash_after[i] corrections when >= 0.
  std::vector<std::int32_t> crash_after;
};

struct ClusterResult {
  double final_rel_res = 1.0;
  double seconds = 0.0;
  std::vector<int> corrections;       // per shard; 0 for dead workers
  std::vector<std::size_t> dead_workers;
  int reads_dropped = 0;
  /// Frames the coordinator forwarded between workers: always 0, since x
  /// blocks travel on the workers' own links.
  std::uint64_t frames_relayed = 0;
  std::uint64_t halo_frames = 0;      // halo frames the workers sent, summed
  std::uint64_t frames_dropped = 0;   // worker mailbox + send drops, summed
  /// Coordinator -> workers, plus the peer-link bytes the workers sent
  /// (from each kSolveDone).
  std::uint64_t bytes_sent = 0;
  /// Workers -> coordinator, plus the peer-link bytes the workers had
  /// received when they reported.
  std::uint64_t bytes_received = 0;
  std::uint64_t connect_retries = 0;  // backoff-spaced redials
  std::uint64_t setup_misses = 0;     // workers sent the hierarchy
  std::string to_json() const;
};

class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(ClusterOptions opts);

  std::size_t num_workers() const { return opts_.endpoints.size(); }
  const ClusterOptions& options() const { return opts_; }

  /// Solves A x = b across the workers (shard count = endpoint count); x is
  /// updated in place. Throws SocketError when a worker cannot be reached
  /// within connect_attempts.
  ClusterResult solve(const MgSetup& setup, const Vector& b, Vector& x,
                      const ClusterSolveOptions& so);

  /// Asks every reachable worker for its stats JSON and merges them with
  /// the coordinator counters (one fresh connection per worker).
  std::string stats_json() const;

  /// Sends kShutdown to every endpoint that still answers (used by the
  /// bench harness and the CI smoke job to end daemons cleanly).
  void shutdown_workers() const;

 private:
  /// A handshaken worker: its connection (FrameConn owns a mutex, so it
  /// travels behind a pointer), the setup keys its hello listed and its
  /// data port.
  struct WorkerLink {
    std::unique_ptr<FrameConn> conn;
    std::vector<std::uint64_t> setup_keys;
    std::uint16_t data_port = 0;
  };

  /// Dial + handshake one worker, with backoff between attempts; counts
  /// retries into `retries`.
  WorkerLink connect_worker(std::size_t i, std::uint64_t& retries) const;

  ClusterOptions opts_;
};

struct ClusterRouterOptions {
  /// The worker fleet (superset of any one solve's participants).
  std::vector<Endpoint> endpoints;
  /// Workers participating in one solve (= shard count).
  std::size_t shards_per_solve = 2;
  std::size_t vnodes_per_endpoint = 64;
  std::uint64_t ring_seed = 0;
  /// Coordinator settings applied to every solve (endpoints overwritten per
  /// solve with the ring's selection).
  ClusterOptions cluster;

  /// Throws std::invalid_argument with a field-naming message on the first
  /// invalid setting.
  void validate() const;
};

class ClusterRouter {
 public:
  explicit ClusterRouter(ClusterRouterOptions opts);

  const std::vector<RingNode>& ring() const { return ring_; }

  /// Endpoint indices (into options().endpoints) the ring assigns to this
  /// matrix, in shard order.
  std::vector<std::size_t> endpoints_for(const CsrMatrix& a) const;

  /// Routes the solve to the matrix's home workers.
  ClusterResult solve(const MgSetup& setup, const Vector& b, Vector& x,
                      const ClusterSolveOptions& so);

  const ClusterRouterOptions& options() const { return opts_; }

  /// Router counters plus the per-worker stats JSON of the fleet spliced in
  /// verbatim (same shape as ShardRouter::stats_json).
  std::string stats_json() const;

 private:
  ClusterRouterOptions opts_;
  std::vector<RingNode> ring_;
  std::uint64_t routed_ = 0;
  std::vector<std::uint64_t> routed_per_endpoint_;
};

}  // namespace asyncmg
