#include "net/transport.hpp"

#include <stdexcept>

namespace asyncmg {

void SocketTransportOptions::validate() const {
  if (num_shards < 1) {
    throw std::invalid_argument(
        "SocketTransportOptions: num_shards must be >= 1");
  }
  if (shard >= num_shards) {
    throw std::invalid_argument(
        "SocketTransportOptions: shard must be < num_shards");
  }
  if (mailbox_capacity < 1) {
    throw std::invalid_argument(
        "SocketTransportOptions: mailbox_capacity must be >= 1");
  }
  if (links.size() != num_shards) {
    throw std::invalid_argument(
        "SocketTransportOptions: links must hold one entry per shard");
  }
  if (!expect_boundary.empty() && expect_boundary.size() != num_shards) {
    throw std::invalid_argument(
        "SocketTransportOptions: expect_boundary must be empty or one entry "
        "per shard");
  }
}

SocketTransport::SocketTransport(SocketTransportOptions opts)
    : opts_(opts),
      boxes_(opts.num_shards * static_cast<std::size_t>(kNumHaloTags)),
      dead_(opts.num_shards, false) {
  opts_.validate();
}

bool SocketTransport::send(std::size_t from, std::size_t to, HaloTag tag,
                           HaloPacket&& p) {
  if (from != opts_.shard || to >= opts_.num_shards || to == from) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead = dead_[to];
  }
  FrameConn* const link = opts_.links[to];
  if (dead || link == nullptr ||
      !link->send_frame(MsgType::kHaloFrame,
                        encode_halo_frame(
                            halo_to_wire(from, to, tag, p, opts_.width)))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SocketTransport::recv_latest(std::size_t to, std::size_t from,
                                  HaloTag tag, HaloPacket& out) {
  if (to != opts_.shard || from >= opts_.num_shards) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<HaloPacket>& q = box(from, tag);
  if (q.empty()) return false;
  out = std::move(q.back());
  q.clear();
  return true;
}

bool SocketTransport::recv_next(std::size_t to, std::size_t from, HaloTag tag,
                                HaloPacket& out) {
  if (to != opts_.shard || from >= opts_.num_shards) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<HaloPacket>& q = box(from, tag);
  if (q.empty()) return false;
  out = std::move(q.front());
  q.pop_front();
  return true;
}

void SocketTransport::wait_next(std::size_t to, std::size_t from,
                                HaloTag tag, int) {
  if (to != opts_.shard || from >= opts_.num_shards) return;
  std::unique_lock<std::mutex> lock(mu_);
  arrived_.wait_for(lock, kWaitBound,
                    [&] { return !box(from, tag).empty() || dead_[from]; });
}

void SocketTransport::peer_dead(std::size_t peer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (peer < dead_.size()) dead_[peer] = true;
  }
  arrived_.notify_all();
}

bool SocketTransport::deliver(const HaloFrameMsg& m) {
  if (m.to != opts_.shard || m.from >= opts_.num_shards ||
      m.from == opts_.shard || m.tag >= kNumHaloTags) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!opts_.expect_boundary.empty() &&
      m.data.size() != opts_.expect_boundary[m.from]) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<HaloPacket>& q = box(m.from, static_cast<HaloTag>(m.tag));
    if (q.size() >= opts_.mailbox_capacity) {
      q.pop_front();  // newest wins
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    q.push_back(wire_to_halo(m));
  }
  arrived_.notify_all();
  return true;
}

NetPeerBoard::NetPeerBoard(std::size_t num_shards, std::size_t self)
    : self_(self), commits_(num_shards), dead_(num_shards) {}

void NetPeerBoard::publish_commits(std::size_t self, int commits) {
  commits_[self].store(commits, std::memory_order_release);
}

void NetPeerBoard::publish_dead(std::size_t self) {
  // The wire-level death signal is the session outcome (kSolveDone or a
  // dropped connection), which the coordinator turns into kPeerDead for
  // everyone else; locally the flag just stops this worker's own waits.
  dead_[self].store(true, std::memory_order_release);
}

void NetPeerBoard::apply_commits(std::size_t peer, std::uint64_t commits) {
  if (peer >= commits_.size() || peer == self_) return;
  commits_[peer].store(static_cast<int>(commits), std::memory_order_release);
}

void NetPeerBoard::apply_dead(std::size_t peer) {
  if (peer >= dead_.size() || peer == self_) return;
  dead_[peer].store(true, std::memory_order_release);
}

bool deliver_from_link(std::size_t peer, const HaloFrameMsg& m,
                       SocketTransport& transport, NetPeerBoard& board) {
  if (m.from != peer || !transport.deliver(m)) return false;
  board.apply_commits(peer, m.seq);
  return true;
}

}  // namespace asyncmg
