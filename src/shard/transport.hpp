#pragma once
// Pluggable point-to-point transport for the sharded executor's x-block
// exchange. The executor only ever talks to this interface, so the
// in-process channels below and the out-of-process SocketTransport
// (src/net) run the same worker loop.
//
// ChannelTransport gives every directed (from, to, tag) edge its own
// bounded single-producer/single-consumer ring: the producer is the
// sending shard's thread, the consumer the receiving shard's thread, and
// the only synchronization is one release store / acquire load pair per
// packet -- lock-free and TSan-clean by construction. A full ring DROPS the
// packet (counted, never blocking): the receiver simply keeps its stale
// view of the sender's block, which is exactly the lost-message semantics
// the paper's Criterion-2 recovery and the FaultPlan drop-read harness
// model.
//
// An optional mean one-way latency delays *visibility*, not the sender:
// packets carry a deadline and recv_latest ignores packets still in
// flight. Latency is sampled per packet from U[0.5, 1.5] * latency with a
// deterministic per-edge RNG, mirroring async/distributed's cost model.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace asyncmg {

class Counter;
class MetricsRegistry;

struct HaloPacket {
  /// Sender's commit count when the packet was published (staleness probe).
  std::uint64_t seq = 0;
  std::vector<double> data;
};

/// Payload kinds multiplexed over one shard pair. kBoundaryX carries the x
/// values the receiver reads from the sender; every shard computes the
/// whole fine residual itself (local-res), so that is the sender's entire
/// owned block.
enum class HaloTag : int { kBoundaryX = 0 };
inline constexpr int kNumHaloTags = 1;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Queues a packet from shard `from` to shard `to`. Returns false when
  /// the channel is full and the packet was dropped.
  virtual bool send(std::size_t from, std::size_t to, HaloTag tag,
                    HaloPacket&& p) = 0;

  /// Pops every deliverable packet on the edge and returns the newest in
  /// `out`; false when nothing (new) is deliverable. Packets whose latency
  /// deadline has not passed stay queued.
  virtual bool recv_latest(std::size_t to, std::size_t from, HaloTag tag,
                           HaloPacket& out) = 0;

  /// Pops the OLDEST deliverable packet on the edge (FIFO order); false when
  /// nothing is deliverable. The bulk-synchronous discipline consumes edges
  /// with this one packet per round, so a fast sender can never overwrite a
  /// round's exchange before the receiver reads it -- the property that
  /// makes BSP over any transport deterministic.
  virtual bool recv_next(std::size_t to, std::size_t from, HaloTag tag,
                         HaloPacket& out) = 0;

  /// Pauses the BSP wait for the edge's next packet before it polls
  /// recv_next again; `spins` counts the pauses of this wait so far. The
  /// default yields for the first 255, then sleeps 50 us (an in-process
  /// ring has no delivery signal to block on). Transports filled by another
  /// thread override it to block until delivery.
  virtual void wait_next(std::size_t to, std::size_t from, HaloTag tag,
                         int spins);

  virtual std::uint64_t packets_sent() const = 0;
  virtual std::uint64_t packets_dropped() const = 0;
};

struct ChannelTransportOptions {
  std::size_t num_shards = 1;
  /// Ring capacity per directed edge and tag (packets).
  std::size_t capacity = 8;
  /// Mean one-way latency in microseconds; 0 = immediately visible.
  double latency_us = 0.0;
  std::uint64_t seed = 1;
  /// Optional metrics registry: when set, sends and drops are also counted
  /// on the "shard.transport.packets_sent" / ".packets_dropped" counters,
  /// so transport health shows up in every stats JSON that merges the
  /// registry (SolveService::stats_json, router stats). Not owned; must
  /// outlive the transport. nullptr = counters local to the transport only.
  MetricsRegistry* metrics = nullptr;
};

class ChannelTransport final : public Transport {
 public:
  explicit ChannelTransport(ChannelTransportOptions opts);

  bool send(std::size_t from, std::size_t to, HaloTag tag,
            HaloPacket&& p) override;
  bool recv_latest(std::size_t to, std::size_t from, HaloTag tag,
                   HaloPacket& out) override;
  bool recv_next(std::size_t to, std::size_t from, HaloTag tag,
                 HaloPacket& out) override;

  std::uint64_t packets_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t packets_dropped() const override {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    HaloPacket packet;
    Clock::time_point deliver_at;
  };
  /// Bounded SPSC ring: `tail` is produced-count (written by the sender
  /// with a release store), `head` consumed-count (written by the receiver
  /// with a release store); each side reads the other's counter with an
  /// acquire load before touching slots.
  struct Edge {
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> tail{0};
    /// Latency sampling is producer-side state (SPSC: only the sender
    /// touches it).
    Rng rng{1};
  };

  Edge& edge(std::size_t from, std::size_t to, HaloTag tag) {
    return *edges_[(from * opts_.num_shards + to) * kNumHaloTags +
                   static_cast<std::size_t>(tag)];
  }

  ChannelTransportOptions opts_;
  std::vector<std::unique_ptr<Edge>> edges_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  /// Registry counters resolved once at construction (hot-path updates are
  /// one relaxed fetch_add); null when opts_.metrics is null.
  Counter* metric_sent_ = nullptr;
  Counter* metric_dropped_ = nullptr;
};

}  // namespace asyncmg
