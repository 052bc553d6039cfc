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
  if (conn == nullptr) {
    throw std::invalid_argument("SocketTransportOptions: conn must be set");
  }
  if (!expect_boundary.empty() && expect_boundary.size() != num_shards) {
    throw std::invalid_argument(
        "SocketTransportOptions: expect_boundary must be empty or one entry "
        "per shard");
  }
  if (!expect_residual.empty() && expect_residual.size() != num_shards) {
    throw std::invalid_argument(
        "SocketTransportOptions: expect_residual must be empty or one entry "
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
  const HaloFrameMsg m = halo_to_wire(from, to, tag, p, opts_.width);
  if (!opts_.conn->send_frame(MsgType::kHaloFrame, encode_halo_frame(m))) {
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

void SocketTransport::deliver(const HaloFrameMsg& m) {
  if (m.to != opts_.shard || m.from >= opts_.num_shards ||
      m.from == opts_.shard || m.tag >= kNumHaloTags) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::vector<std::size_t>& expect =
      static_cast<HaloTag>(m.tag) == HaloTag::kBoundaryX
          ? opts_.expect_boundary
          : opts_.expect_residual;
  if (!expect.empty() && m.data.size() != expect[m.from]) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
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
}

NetPeerBoard::NetPeerBoard(std::size_t num_shards, std::size_t self,
                           FrameConn* conn)
    : self_(self), conn_(conn), commits_(num_shards), dead_(num_shards) {}

void NetPeerBoard::publish_commits(std::size_t self, int commits) {
  commits_[self].store(commits, std::memory_order_release);
  ProgressMsg m;
  m.shard = static_cast<std::uint32_t>(self);
  m.commits = static_cast<std::uint64_t>(commits);
  conn_->send_frame(MsgType::kProgress, encode_progress(m));
}

void NetPeerBoard::publish_dead(std::size_t self) {
  // The wire-level death signal is the session outcome (kSolveDone or a
  // dropped connection), which the coordinator turns into kPeerDead for
  // everyone else; locally the flag just stops this worker's own waits.
  dead_[self].store(true, std::memory_order_release);
}

void NetPeerBoard::apply_progress(const ProgressMsg& m) {
  if (m.shard >= commits_.size() || m.shard == self_) return;
  commits_[m.shard].store(static_cast<int>(m.commits),
                          std::memory_order_release);
}

void NetPeerBoard::apply_dead(std::size_t peer) {
  if (peer >= dead_.size() || peer == self_) return;
  dead_[peer].store(true, std::memory_order_release);
}

}  // namespace asyncmg
