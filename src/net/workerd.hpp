#pragma once
// WorkerDaemon: one shard of the multi-process solver service. The daemon
// listens on loopback for coordinator sessions (port 0 = ephemeral,
// reported via port()) and on a second ephemeral loopback port, its data
// listener, for links from its peers. For every kSolveRequest it runs the
// SAME per-shard loop the in-process solver runs (shard/worker.hpp
// run_shard_worker) over a SocketTransport -- the executor cannot tell
// threads from processes.
//
// One solve, in the session thread:
//
//   link phase      right after the request is decoded, before the setup
//                   is loaded (so peers link while a cold setup loads):
//                   dial every higher-numbered shard's data endpoint and
//                   send kPeerHello, then accept one link from each
//                   lower-numbered shard, dropping any connection whose
//                   first frame is not a kPeerHello with this solve's
//                   nonce, an awaited sender and this shard as receiver. A
//                   link not up by the request's link deadline counts as a
//                   peer dead from round 0. The coordinator link is
//                   watched throughout (kPeerDead ends a wait early) and
//                   beaten on every heartbeat_ms.
//   solve           one poll over the coordinator link, every live peer
//                   link and the solver's WakeFd. A block on link p ->
//                   SocketTransport::deliver plus p's commit count from its
//                   seq; anything else on link p, or its EOF, cuts p off as
//                   dead (shutdown_both, which also unblocks a solver stuck
//                   sending to p). kPeerDead cuts its peer off the same
//                   way; kShutdown stops the daemon after the solve; a halo
//                   frame on the coordinator link is a protocol violation,
//                   handled as a lost coordinator, which cuts every peer
//                   off so the solver finishes locally.
//   linger          after kSolveDone, keep draining the links until the
//                   coordinator link turns readable (its EOF once every
//                   worker has reported), so a slower peer's last sends to
//                   this worker neither block nor fail.
//
//   solver thread     run_shard_worker, untouched.
//   heartbeat thread  kHeartbeat every heartbeat_ms while the solver runs
//                     so the coordinator can tell a slow worker from a dead
//                     one; between beats it waits on the solver's WakeFd,
//                     so it ends with the solve.
//
// Determinism: the worker rebuilds the full MgSetup from the serialized
// hierarchy (amg/serialize round trips bit-exactly), computes every shard's
// owned rows from it (shard_owned_ranges) and starts from the request's
// x0, so every process starts from identical state with no data exchange
// beyond the request. Setups are
// cached by the request's setup_key (net/wire.hpp) in a small LRU whose
// keys the hello lists, so the coordinator sends the hierarchy only to a
// worker that lacks it, and a cached key solves at once (the remote
// analogue of the service's HierarchyCache affinity). A request that
// carries a hierarchy is always loaded and its key recomputed. A key that
// disagrees with the bytes, or a key-only request for a setup the worker
// does not hold, is a protocol violation that ends the session unsolved.
//
// The kSolveRequest crash_after hook makes the worker drop its connections
// without kSolveDone after that many corrections -- a deterministic SIGKILL
// stand-in so crash-recovery tests are not racing a signal. The bench
// harness kills real processes instead; both end in the same EOF at the
// coordinator and at every peer.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "multigrid/setup.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace asyncmg {

class TelemetrySink;

struct WorkerDaemonOptions {
  /// Loopback port to listen on; 0 binds an ephemeral port.
  std::uint16_t port = 0;
  std::string name = "worker";
  double heartbeat_ms = 25.0;
  /// Serve exactly one coordinator session, then return from run() (the
  /// in-process test mode; the binary loops by default).
  bool once = false;
  /// Setups kept in the hierarchy cache before evicting the oldest.
  std::size_t setup_cache_entries = 4;
  /// Per-shard solver events land on tid = shard; counters under "net.*".
  /// Not owned; may be null.
  TelemetrySink* telemetry = nullptr;

  /// Throws std::invalid_argument with a field-naming message on the first
  /// invalid setting.
  void validate() const;
};

class WorkerDaemon {
 public:
  /// Validates options and binds both listeners (throws SocketError when
  /// the port is taken).
  explicit WorkerDaemon(WorkerDaemonOptions opts);

  std::uint16_t port() const { return listener_.port(); }
  const WorkerDaemonOptions& options() const { return opts_; }

  /// Accept/serve loop; returns after kShutdown, request_stop(), or (with
  /// options().once) the first session.
  void run();

  /// Makes run() return at its next accept/read timeout (thread-safe).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Daemon counters as JSON: solves served, crashes injected, setup cache
  /// hits/misses, connection byte totals, plus the telemetry registry when
  /// a sink is attached.
  std::string stats_json() const;

 private:
  enum class SessionEnd { kPeerGone, kShutdown, kCrashed };

  struct Session;

  SessionEnd serve(FrameConn& conn);
  /// Runs one solve over `conn`; false means the crash hook fired and the
  /// connection must be dropped without kSolveDone.
  bool handle_solve(FrameConn& conn, const SolveRequestMsg& req);
  /// The link phase (header comment): fills the session's links, marking
  /// every peer whose link did not come up dead.
  void link_peers(Session& ses, const SolveRequestMsg& req);
  /// The setup the request names: the cached one for a key-only request,
  /// else the request's hierarchy, loaded and cached. Throws WireError when
  /// a key-only request's key is not cached or a hierarchy's key is not the
  /// request's.
  const MgSetup& setup_for(const SolveRequestMsg& req);

  WorkerDaemonOptions opts_;
  ListenSocket listener_;
  ListenSocket data_;
  std::atomic<bool> stop_{false};

  struct CacheEntry {
    std::uint64_t key = 0;
    std::unique_ptr<MgSetup> setup;
  };
  std::vector<CacheEntry> cache_;  // most recently used at the back
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t crashes_ = 0;
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
};

}  // namespace asyncmg
