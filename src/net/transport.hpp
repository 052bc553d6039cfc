#pragma once
// SocketTransport: the out-of-process implementation of the sharded
// executor's Transport seam (shard/transport.hpp). One worker process holds
// one SocketTransport over its single connection to the coordinator; frames
// addressed to a peer are relayed by the coordinator (hub and spoke), so a
// worker never dials its peers directly and the control plane sees every
// byte of data traffic.
//
//   send        encodes a HaloFrameMsg and writes it to the connection; a
//               gone coordinator makes send return false (a dropped packet,
//               exactly the ChannelTransport full-ring semantics).
//   deliver     called by the daemon's reader thread for every inbound
//               kHaloFrame: appends to the per-(peer, tag) mailbox. A full
//               mailbox evicts the OLDEST frame (newest wins, counted as a
//               drop) -- the BSP discipline never overflows (skew is
//               bounded by one round), the free-running discipline only
//               cares about the newest view anyway.
//   recv_latest newest-wins: takes the back of the mailbox, discards the
//               rest (the PR 6 free-running read).
//   recv_next   FIFO: pops the front (the BSP one-frame-per-round read).
//   wait_next   the BSP wait: blocks on a condition variable until deliver
//               fills the edge's mailbox or peer_dead marks its sender,
//               each wait bounded by kWaitBound.
//
// Mailboxes are guarded by one mutex (reader thread vs solver thread; the
// traffic is a handful of frames per round, far from contention). The
// ChannelTransport stays lock-free for the in-process path; this class
// exists for the process boundary where a socket round trip dwarfs a mutex.
//
// NetPeerBoard is the matching control-plane seam: commits published by the
// local solver go out as kProgress frames (the coordinator broadcasts them),
// peer commits and deaths arrive from the reader thread via apply_*.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "shard/transport.hpp"
#include "shard/worker.hpp"

namespace asyncmg {

struct SocketTransportOptions {
  std::size_t shard = 0;
  std::size_t num_shards = 1;
  /// Frames kept per (peer, tag) mailbox; overflow evicts the oldest.
  std::size_t mailbox_capacity = 64;
  /// Scalar width of outgoing x blocks (fp32 halves the wire bytes; the
  /// receiver's view of foreign rows then holds fp32-rounded values, the
  /// PR 7 mixed-precision trade).
  WireWidth width = WireWidth::kF64;
  /// Connection to the coordinator. Not owned; must outlive the transport.
  FrameConn* conn = nullptr;
  /// Expected kBoundaryX payload length per sending peer (indexed by peer):
  /// the plan's owned[peer].size(). Empty disables the check (bare
  /// unit-test rigs); when set (size num_shards), a frame whose payload
  /// length disagrees with the plan is counted as dropped and never
  /// reaches a mailbox -- a confused or malicious coordinator/peer cannot
  /// make the solver read or write out of bounds.
  std::vector<std::size_t> expect_boundary;

  /// Throws std::invalid_argument with a field-naming message on the first
  /// invalid setting.
  void validate() const;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions opts);

  bool send(std::size_t from, std::size_t to, HaloTag tag,
            HaloPacket&& p) override;
  bool recv_latest(std::size_t to, std::size_t from, HaloTag tag,
                   HaloPacket& out) override;
  bool recv_next(std::size_t to, std::size_t from, HaloTag tag,
                 HaloPacket& out) override;
  void wait_next(std::size_t to, std::size_t from, HaloTag tag,
                 int spins) override;

  /// Upper bound of one wait_next. Every wakeup the wait needs is signalled
  /// (deliver, peer_dead); the bound only caps the cost of one that is not.
  static constexpr std::chrono::milliseconds kWaitBound{5};

  /// Reader-thread notice that `peer` will never send again: wakes a
  /// wait_next on its edges. Call after the PeerBoard marks it dead.
  void peer_dead(std::size_t peer);

  /// Inbound frame from the reader thread. Frames not addressed to this
  /// shard, carrying an out-of-range peer, or whose payload length does not
  /// match the plan expectation for the sending peer are counted as
  /// dropped (a confused or malicious coordinator cannot corrupt a mailbox
  /// or smuggle a wrong-sized payload to the solver).
  void deliver(const HaloFrameMsg& m);

  std::uint64_t packets_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t packets_dropped() const override {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::deque<HaloPacket>& box(std::size_t from, HaloTag tag) {
    return boxes_[from * static_cast<std::size_t>(kNumHaloTags) +
                  static_cast<std::size_t>(tag)];
  }

  SocketTransportOptions opts_;
  std::mutex mu_;
  std::condition_variable arrived_;
  std::vector<std::deque<HaloPacket>> boxes_;
  std::vector<bool> dead_;  // by peer, under mu_
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// PeerBoard over the coordinator connection: local state is a mirror of
/// the cluster's progress, fed by the reader thread; the local shard's own
/// publishes go out on the wire (and into the mirror, so self-reads agree).
class NetPeerBoard final : public PeerBoard {
 public:
  NetPeerBoard(std::size_t num_shards, std::size_t self, FrameConn* conn);

  void publish_commits(std::size_t self, int commits) override;
  void publish_dead(std::size_t self) override;
  int commits(std::size_t peer) const override {
    return commits_[peer].load(std::memory_order_acquire);
  }
  bool dead(std::size_t peer) const override {
    return dead_[peer].load(std::memory_order_acquire);
  }

  /// Reader-thread application of inbound control frames.
  void apply_progress(const ProgressMsg& m);
  void apply_dead(std::size_t peer);

 private:
  std::size_t self_;
  FrameConn* conn_;
  std::vector<std::atomic<int>> commits_;
  std::vector<std::atomic<bool>> dead_;
};

}  // namespace asyncmg
