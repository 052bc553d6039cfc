#include "shard/transport.hpp"

#include <stdexcept>
#include <thread>

#include "telemetry/registry.hpp"

namespace asyncmg {

void Transport::wait_next(std::size_t, std::size_t, HaloTag, int spins) {
  if (spins < 256) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

ChannelTransport::ChannelTransport(ChannelTransportOptions opts)
    : opts_(opts) {
  if (opts_.num_shards < 1) {
    throw std::invalid_argument("ChannelTransport: num_shards must be >= 1");
  }
  if (opts_.capacity < 1) {
    throw std::invalid_argument("ChannelTransport: capacity must be >= 1");
  }
  if (opts_.latency_us < 0.0) {
    throw std::invalid_argument("ChannelTransport: latency must be >= 0");
  }
  const std::size_t n =
      opts_.num_shards * opts_.num_shards * kNumHaloTags;
  edges_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto e = std::make_unique<Edge>();
    e->slots.resize(opts_.capacity);
    e->rng = Rng(opts_.seed * 0x9e3779b97f4a7c15ull + i);
    edges_.push_back(std::move(e));
  }
  if (opts_.metrics != nullptr) {
    metric_sent_ = &opts_.metrics->counter("shard.transport.packets_sent");
    metric_dropped_ =
        &opts_.metrics->counter("shard.transport.packets_dropped");
  }
}

bool ChannelTransport::send(std::size_t from, std::size_t to, HaloTag tag,
                            HaloPacket&& p) {
  Edge& e = edge(from, to, tag);
  const std::uint64_t tail = e.tail.load(std::memory_order_relaxed);
  const std::uint64_t head = e.head.load(std::memory_order_acquire);
  if (tail - head >= opts_.capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (metric_dropped_ != nullptr) metric_dropped_->add(1);
    return false;
  }
  Slot& s = e.slots[tail % opts_.capacity];
  s.packet = std::move(p);
  s.deliver_at = Clock::now();
  if (opts_.latency_us > 0.0) {
    const double us = opts_.latency_us * e.rng.uniform(0.5, 1.5);
    s.deliver_at += std::chrono::nanoseconds(
        static_cast<std::int64_t>(us * 1000.0));
  }
  e.tail.store(tail + 1, std::memory_order_release);
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (metric_sent_ != nullptr) metric_sent_->add(1);
  return true;
}

bool ChannelTransport::recv_latest(std::size_t to, std::size_t from,
                                   HaloTag tag, HaloPacket& out) {
  Edge& e = edge(from, to, tag);
  std::uint64_t head = e.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = e.tail.load(std::memory_order_acquire);
  const Clock::time_point now = Clock::now();
  bool got = false;
  // Drain in publish order, keeping the newest deliverable packet; stop at
  // the first packet still in flight (later ones were sent even later).
  while (head < tail) {
    Slot& s = e.slots[head % opts_.capacity];
    if (s.deliver_at > now) break;
    out = std::move(s.packet);
    got = true;
    e.head.store(++head, std::memory_order_release);
  }
  return got;
}

bool ChannelTransport::recv_next(std::size_t to, std::size_t from,
                                 HaloTag tag, HaloPacket& out) {
  Edge& e = edge(from, to, tag);
  const std::uint64_t head = e.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = e.tail.load(std::memory_order_acquire);
  if (head >= tail) return false;
  Slot& s = e.slots[head % opts_.capacity];
  if (s.deliver_at > Clock::now()) return false;
  out = std::move(s.packet);
  e.head.store(head + 1, std::memory_order_release);
  return true;
}

}  // namespace asyncmg
