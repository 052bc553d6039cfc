#pragma once
// The per-shard execution loop of the sharded asynchronous solver, factored
// out of ShardedSolver so the SAME loop body runs in-process (one thread per
// shard over the lock-free ChannelTransport) and out-of-process (one worker
// process per shard over the TCP SocketTransport, src/net). Everything the
// loop touches is behind two seams:
//
//   Transport  (shard/transport.hpp)  x-block exchange
//   PeerBoard  (below)                peer progress + liveness
//
// Every correction is local-res (the paper's Section IV): the shard holds a
// full-length view of x -- its own rows current, each peer's rows the newest
// block received from that peer -- computes the whole fine residual b - A x
// from that view itself, forms the full additive correction, commits only
// its own rows, and sends its owned block to every peer. No residual
// crosses a shard boundary, so a stale peer block only lags that peer's
// newest correction; the shard's own rows are never stale. The disciplines
// differ only in which blocks the view holds when a correction starts:
//
//   free-running (bsp = false)  drain newest-wins packets, bounded-skew gate
//       against the slowest LIVE peer, stale views on drops, Criterion-2
//       recovery when a peer dies.
//
//   bulk-synchronous (bsp = true)  round c first awaits + applies every live
//       peer's block of round c - 1 (round 0 starts from the shared initial
//       iterate), so the view is exactly x after round c - 1 and the
//       residual is the global one. Every read is fixed by the round
//       structure, never by message timing, so the iterates are bitwise
//       identical on ANY transport -- and identical to ShardedSolver's
//       kSynchronous scripted oracle. Frames are consumed in FIFO order
//       (Transport::recv_next) one per round, so a fast peer can run at
//       most one round ahead and a default-capacity ring never drops a BSP
//       frame. A dead peer is exempted from the wait after one final drain
//       (its published frames happen-before its death), so a killed worker
//       degrades the view instead of deadlocking the round -- Criterion-2
//       across processes.

#include <atomic>
#include <cstdint>
#include <vector>

#include "async/schedule.hpp"
#include "multigrid/additive.hpp"
#include "shard/partition.hpp"
#include "shard/transport.hpp"

namespace asyncmg {

class TelemetrySink;

/// Peer progress and liveness, the control-plane seam of the shard loop.
/// commits(p) is peer p's committed correction count (the bounded-skew
/// gate's input); dead(p) means p will never commit again -- killed,
/// finished, or its process lost -- so gates and BSP waits must exempt it.
class PeerBoard {
 public:
  virtual ~PeerBoard() = default;

  /// Publishes this shard's committed correction count.
  virtual void publish_commits(std::size_t self, int commits) = 0;
  /// Marks this shard permanently done (finished or killed).
  virtual void publish_dead(std::size_t self) = 0;

  virtual int commits(std::size_t peer) const = 0;
  virtual bool dead(std::size_t peer) const = 0;
};

/// Shared-atomics board for in-process shards (one thread per shard). The
/// release/acquire pairs are the same ones ShardedSolver used inline; a
/// publish is one store, a read one load.
class LocalPeerBoard final : public PeerBoard {
 public:
  explicit LocalPeerBoard(std::size_t num_shards)
      : commits_(num_shards), dead_(num_shards) {}

  void publish_commits(std::size_t self, int commits) override {
    commits_[self].store(commits, std::memory_order_release);
  }
  void publish_dead(std::size_t self) override {
    dead_[self].store(true, std::memory_order_release);
  }
  int commits(std::size_t peer) const override {
    return commits_[peer].load(std::memory_order_acquire);
  }
  bool dead(std::size_t peer) const override {
    return dead_[peer].load(std::memory_order_acquire);
  }

 private:
  std::vector<std::atomic<int>> commits_;
  std::vector<std::atomic<bool>> dead_;
};

struct ShardWorkerOptions {
  std::size_t shard = 0;
  int t_max = 20;
  /// Free-running mode: run at most max_lag corrections ahead of the
  /// slowest live peer (ignored when bsp).
  int max_lag = 3;
  /// Bulk-synchronous rounds (see header comment); deterministic on any
  /// transport.
  bool bsp = false;
  /// Fault injection; grid ids are shard ids. Not owned; may be null.
  const FaultPlan* faults = nullptr;
  /// Per-shard wall-time events on tid = shard. Not owned; may be null.
  TelemetrySink* telemetry = nullptr;
};

struct ShardWorkerResult {
  int corrections = 0;
  int reads_dropped = 0;
  bool killed = false;
};

/// Runs one shard's correction loop to completion. `owned` is every
/// shard's row range (shard_owned_ranges; one entry per shard). `x_view` is
/// the full-length initial iterate, identical in every participant (it is
/// part of the problem, so processes agree without any startup exchange).
/// On return its owned rows hold the shard's final block and every other
/// row the newest block the shard received from that row's owner.
ShardWorkerResult run_shard_worker(const std::vector<Range>& owned,
                                   const AdditiveCorrector& corrector,
                                   const Vector& b, Vector& x_view,
                                   Transport& transport, PeerBoard& board,
                                   const ShardWorkerOptions& opts);

}  // namespace asyncmg
