#include "net/workerd.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "amg/serialize.hpp"
#include "async/schedule.hpp"
#include "backend/backend.hpp"
#include "multigrid/additive.hpp"
#include "net/transport.hpp"
#include "shard/partition.hpp"
#include "shard/worker.hpp"
#include "telemetry/sink.hpp"

namespace asyncmg {

void WorkerDaemonOptions::validate() const {
  if (!(heartbeat_ms > 0.0)) {
    throw std::invalid_argument(
        "WorkerDaemonOptions: heartbeat_ms must be > 0");
  }
  if (setup_cache_entries < 1) {
    throw std::invalid_argument(
        "WorkerDaemonOptions: setup_cache_entries must be >= 1");
  }
}

WorkerDaemon::WorkerDaemon(WorkerDaemonOptions opts)
    : opts_(opts), listener_((opts.validate(), opts.port)), data_(0) {}

void WorkerDaemon::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Socket s = listener_.accept(100);
    if (!s.valid()) continue;  // timeout; recheck stop flag
    FrameConn conn(std::move(s));
    const SessionEnd end = serve(conn);
    bytes_sent_.fetch_add(conn.bytes_sent(), std::memory_order_relaxed);
    bytes_received_.fetch_add(conn.bytes_received(),
                              std::memory_order_relaxed);
    conn.close();
    if (end == SessionEnd::kShutdown || opts_.once) return;
  }
}

WorkerDaemon::SessionEnd WorkerDaemon::serve(FrameConn& conn) {
  HelloMsg hello;
  hello.role = WireRole::kWorker;
  hello.name = opts_.name;
  for (const CacheEntry& e : cache_) hello.setup_keys.push_back(e.key);
  hello.data_port = data_.port();
  if (!conn.send_frame(MsgType::kHello, encode_hello(hello))) {
    return SessionEnd::kPeerGone;
  }

  MsgType type{};
  std::vector<std::uint8_t> payload;
  // Reads the next frame into type/payload; returns how the session ends
  // instead when the coordinator is gone or a stop is requested while idle.
  auto next_frame = [&]() -> std::optional<SessionEnd> {
    for (;;) {
      const RecvStatus st = conn.recv_frame(type, payload, 100);
      if (st == RecvStatus::kFrame) return std::nullopt;
      if (st == RecvStatus::kClosed) return SessionEnd::kPeerGone;
      if (stop_.load(std::memory_order_relaxed)) return SessionEnd::kShutdown;
    }
  };
  try {
    // Handshake: the coordinator answers the hello with our assignment.
    if (const auto end = next_frame()) return *end;
    if (type == MsgType::kShutdown) return SessionEnd::kShutdown;
    if (type != MsgType::kHelloAck ||
        decode_hello_ack(payload).protocol != kWireVersion) {
      return SessionEnd::kPeerGone;  // protocol violation
    }

    for (;;) {
      if (const auto end = next_frame()) return *end;
      switch (type) {
        case MsgType::kSolveRequest:
          if (!handle_solve(conn, decode_solve_request(payload))) {
            return SessionEnd::kCrashed;
          }
          break;
        case MsgType::kStatsRequest: {
          StatsResponseMsg m;
          m.json = stats_json();
          conn.send_frame(MsgType::kStatsResponse, encode_stats_response(m));
          break;
        }
        case MsgType::kShutdown:
          return SessionEnd::kShutdown;
        default:
          break;  // stray control frames outside a solve
      }
    }
  } catch (const std::exception&) {
    // Malformed frame or unusable request: drop the session; the daemon
    // keeps serving (a bad coordinator must not take the worker down).
    return SessionEnd::kPeerGone;
  }
}

const MgSetup& WorkerDaemon::setup_for(const SolveRequestMsg& req) {
  if (req.hierarchy.empty()) {
    const auto it =
        std::find_if(cache_.begin(), cache_.end(), [&](const CacheEntry& e) {
          return e.key == req.setup_key;
        });
    if (it == cache_.end()) {
      throw WireError("key-only solve request for a setup not cached");
    }
    ++cache_hits_;
    std::rotate(it, it + 1, cache_.end());  // most recently used to the back
    return *cache_.back().setup;
  }
  ++cache_misses_;
  Hierarchy h = load_hierarchy_string(req.hierarchy);
  if (setup_key(h, req) != req.setup_key) {
    throw WireError("solve request's setup key does not match its hierarchy");
  }
  MgOptions mo;
  mo.smoother.type = static_cast<SmootherType>(req.smoother_type);
  mo.smoother.omega = req.smoother_omega;
  mo.smoother.num_blocks = req.smoother_blocks;
  mo.max_dense_coarse = static_cast<Index>(req.max_dense_coarse);
  CacheEntry e;
  e.key = req.setup_key;
  e.setup = std::make_unique<MgSetup>(std::move(h), mo);
  std::erase_if(cache_,
                [&](const CacheEntry& c) { return c.key == req.setup_key; });
  if (cache_.size() >= opts_.setup_cache_entries) {
    cache_.erase(cache_.begin());  // least recently used
  }
  cache_.push_back(std::move(e));
  return *cache_.back().setup;
}

/// One solve's connections as the session thread sees them: the
/// coordinator link, one link per peer, and who is dead. Every read of
/// every link happens on the session thread; the solver only writes to the
/// links (SocketTransport::send), the heartbeat thread only to the
/// coordinator link.
struct WorkerDaemon::Session {
  Session(FrameConn& c, const SolveRequestMsg& req, std::atomic<bool>& s)
      : coord(c),
        self(req.shard),
        links(req.num_shards),
        dead(req.num_shards, false),
        stop(s) {}

  FrameConn& coord;
  std::size_t self;
  std::vector<std::unique_ptr<FrameConn>> links;  // by shard; null = not up
  std::vector<bool> dead;                         // by shard
  bool coordinator_gone = false;
  std::atomic<bool>& stop;
  // Set once the solve starts; during the link phase a cut only marks.
  SocketTransport* transport = nullptr;
  NetPeerBoard* board = nullptr;

  bool live(std::size_t p) const { return links[p] != nullptr && !dead[p]; }

  /// Peer p will never send again: shut its link down (unblocking a solver
  /// mid-send to it), then mark it on the board and wake the solver if it
  /// waits on one of p's edges.
  void cut(std::size_t p) {
    if (p >= dead.size() || p == self || dead[p]) return;
    dead[p] = true;
    if (links[p] != nullptr) links[p]->shutdown_both();
    if (board != nullptr) board->apply_dead(p);
    if (transport != nullptr) transport->peer_dead(p);
  }

  /// No coordinator means no kPeerDead will ever come: every peer counts as
  /// dead, so the solver finishes from its current view -- Criterion-2
  /// from the worker's side.
  void lose_coordinator() {
    coordinator_gone = true;
    for (std::size_t p = 0; p < dead.size(); ++p) cut(p);
  }

  /// Reads the coordinator link (when poll found it `readable`) and
  /// applies every complete frame. The whole step runs under the try: a
  /// malformed frame -- truncated, bad checksum, OR checksum-valid but
  /// semantically invalid -- means the coordinator can no longer be
  /// trusted, exactly like a closed link.
  void service_coordinator(bool readable) {
    try {
      if (readable && !coord.read_available()) {
        lose_coordinator();
        return;
      }
      MsgType type{};
      std::vector<std::uint8_t> payload;
      while (coord.peel_frame(type, payload)) {
        switch (type) {
          case MsgType::kPeerDead:
            cut(decode_peer_dead(payload).shard);
            break;
          case MsgType::kShutdown:
            stop.store(true, std::memory_order_relaxed);
            break;
          case MsgType::kHaloFrame:
            throw WireError("halo frame on the coordinator link");
          default:
            break;
        }
      }
    } catch (const std::exception&) {
      lose_coordinator();
    }
  }

  /// Reads link p (when poll found it `readable`) and delivers every
  /// complete block. EOF, or any frame that is not a block of p for this
  /// shard, cuts p off.
  void service_link(std::size_t p, bool readable) {
    bool ok = true;
    try {
      FrameConn& link = *links[p];
      ok = !readable || link.read_available();
      MsgType type{};
      std::vector<std::uint8_t> payload;
      while (ok && link.peel_frame(type, payload)) {
        ok = type == MsgType::kHaloFrame &&
             deliver_from_link(p, decode_halo_frame(payload), *transport,
                               *board);
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) cut(p);
  }

  /// Polls the coordinator link (unless gone), every live link and `wake`
  /// (when given) for up to `timeout_ms`. fds[0] is `wake`'s slot (or
  /// unused), fds[1] the coordinator's, then one per index in `polled`.
  int poll_links(std::vector<pollfd>& fds, std::vector<std::size_t>& polled,
                 const WakeFd* wake, int timeout_ms) const {
    fds.assign(2, pollfd{-1, POLLIN, 0});
    if (wake != nullptr) fds[0].fd = wake->fd();
    if (!coordinator_gone) fds[1].fd = coord.fd();
    polled.clear();
    for (std::size_t p = 0; p < links.size(); ++p) {
      if (!live(p)) continue;
      fds.push_back(pollfd{links[p]->fd(), POLLIN, 0});
      polled.push_back(p);
    }
    for (;;) {
      const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      if (rc >= 0) return rc;
      if (errno != EINTR) throw SocketError("poll failed");
    }
  }
};

void WorkerDaemon::link_peers(Session& ses, const SolveRequestMsg& req) {
  using Clock = std::chrono::steady_clock;
  const std::size_t s = req.shard;
  const std::size_t num = req.num_shards;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(req.link_timeout_ms);
  // Milliseconds left until `t`, rounded up so a wait never spins at 0.
  auto ms_until = [](Clock::time_point t) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(t - Clock::now())
            .count();
    return us > 0 ? static_cast<int>((us + 999) / 1000) : 0;
  };

  // Dial every higher-numbered shard. A connect completes in the peer's
  // listen backlog, so it never waits for the peer to reach its accepts.
  for (std::size_t p = s + 1; p < num; ++p) {
    try {
      if (req.peers.empty()) throw SocketError("no data endpoints");
      const Endpoint& e = req.peers[p];
      auto link = std::make_unique<FrameConn>(
          connect_tcp(e.host, e.port, std::max(1, ms_until(deadline))));
      PeerHelloMsg h;
      h.nonce = req.link_nonce;
      h.from = static_cast<std::uint32_t>(s);
      h.to = static_cast<std::uint32_t>(p);
      if (link->send_frame(MsgType::kPeerHello, encode_peer_hello(h))) {
        ses.links[p] = std::move(link);
      }
    } catch (const std::exception&) {
      // Unreachable: the link stays down.
    }
  }

  // Accept one link from each lower-numbered shard. A pending connection
  // gets exactly one frame to name itself.
  std::vector<std::unique_ptr<FrameConn>> pending;
  auto awaited = [&] {
    for (std::size_t p = 0; p < s; ++p) {
      if (ses.links[p] == nullptr && !ses.dead[p]) return true;
    }
    return false;
  };
  auto admit = [&](std::unique_ptr<FrameConn>& c) {
    MsgType type{};
    std::vector<std::uint8_t> payload;
    if (!c->peel_frame(type, payload)) return false;
    if (type != MsgType::kPeerHello) return true;  // refused
    const PeerHelloMsg h = decode_peer_hello(payload);
    if (h.nonce == req.link_nonce && h.to == s && h.from < s &&
        ses.links[h.from] == nullptr && !ses.dead[h.from]) {
      ses.links[h.from] = std::move(c);
    }
    return true;
  };
  ses.service_coordinator(false);  // frames queued behind the request
  auto next_beat = Clock::now();
  std::uint64_t beat = 0;
  std::vector<pollfd> fds;
  while (awaited() && !ses.coordinator_gone && Clock::now() < deadline) {
    if (Clock::now() >= next_beat) {
      HeartbeatMsg hb;
      hb.shard = static_cast<std::uint32_t>(s);
      hb.seq = beat++;
      ses.coord.send_frame(MsgType::kHeartbeat, encode_heartbeat(hb));
      next_beat += std::chrono::microseconds(
          static_cast<std::int64_t>(opts_.heartbeat_ms * 1000.0));
    }
    fds.assign({pollfd{ses.coord.fd(), POLLIN, 0},
                pollfd{data_.fd(), POLLIN, 0}});
    for (const auto& c : pending) fds.push_back(pollfd{c->fd(), POLLIN, 0});
    const int rc = ::poll(fds.data(), fds.size(),
                          std::min(ms_until(deadline), ms_until(next_beat)));
    if (rc < 0 && errno != EINTR) throw SocketError("poll failed");
    if (rc <= 0) continue;
    if (fds[0].revents != 0) ses.service_coordinator(true);
    for (std::size_t i = pending.size(); i-- > 0;) {
      if (fds[2 + i].revents == 0) continue;
      bool decided = true;
      try {
        decided = !pending[i]->read_available() || admit(pending[i]);
      } catch (const std::exception&) {
        // A malformed first frame: refused.
      }
      if (decided) {
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (fds[1].revents != 0) {
      try {
        Socket sock = data_.accept(0);
        if (sock.valid()) {
          pending.push_back(std::make_unique<FrameConn>(std::move(sock)));
        }
      } catch (const SocketError&) {
        // A dialler that gave up before the accept: nothing to link.
      }
    }
  }
  // Refused and unnamed connections close as `pending` goes out of scope.
  for (std::size_t p = 0; p < num; ++p) {
    if (ses.links[p] == nullptr) ses.cut(p);
  }
}

bool WorkerDaemon::handle_solve(FrameConn& conn, const SolveRequestMsg& req) {
  Session ses(conn, req, stop_);
  link_peers(ses, req);

  const MgSetup& setup = setup_for(req);
  AdditiveOptions ao;
  ao.kind = static_cast<AdditiveKind>(req.additive_kind);
  ao.afacx_s1 = req.afacx_s1;
  ao.afacx_s2 = req.afacx_s2;
  ao.symmetrized_lambda = req.symmetrized_lambda != 0;
  const AdditiveCorrector corrector(setup, ao);
  const std::vector<Range> owned =
      shard_owned_ranges(setup.a(0), req.num_shards);
  if (req.b.size() != static_cast<std::size_t>(setup.a(0).rows())) {
    throw std::invalid_argument("workerd: b size does not match hierarchy");
  }
  const std::size_t s = req.shard;
  const Range rg = owned[s];

  // Every participant starts from the same x0, so solving can start with no
  // further exchange.
  Vector x_view = req.x0;

  SocketTransportOptions sto;
  sto.shard = s;
  sto.num_shards = req.num_shards;
  sto.width = req.width;
  for (const auto& link : ses.links) sto.links.push_back(link.get());
  // Plan-derived payload lengths: deliver() drops any wire frame whose
  // length disagrees, so a peer can never feed the solver a wrong-sized
  // block.
  sto.expect_boundary.resize(req.num_shards, 0);
  for (std::size_t p = 0; p < req.num_shards; ++p) {
    if (p != s) sto.expect_boundary[p] = owned[p].size();
  }
  SocketTransport transport(sto);
  NetPeerBoard board(req.num_shards, s);
  ses.transport = &transport;
  ses.board = &board;
  // Peers dead since the link phase are dead from round 0.
  for (std::size_t p = 0; p < req.num_shards; ++p) {
    if (ses.dead[p]) {
      board.apply_dead(p);
      transport.peer_dead(p);
    }
  }

  FaultPlan faults;
  if (req.crash_after >= 0) {
    FaultPlan::Kill k;
    k.grid = s;
    k.after_corrections = req.crash_after;
    faults.kills.push_back(k);
  }

  ShardWorkerOptions wo;
  wo.shard = s;
  wo.t_max = req.t_max;
  wo.max_lag = req.max_lag;
  wo.bsp = req.bsp != 0;
  wo.faults = req.crash_after >= 0 ? &faults : nullptr;
  wo.telemetry = opts_.telemetry;

  // A peer's first read may have carried blocks behind its hello, and the
  // coordinator may have queued frames while the setup loaded.
  for (std::size_t p = 0; p < req.num_shards; ++p) {
    if (ses.live(p)) ses.service_link(p, false);
  }
  ses.service_coordinator(false);

  // The solver's return ends both helpers at once: the heartbeat thread
  // waits on solver_done between beats, the session thread polls it beside
  // the links.
  WakeFd solver_done;
  ShardWorkerResult result;
  std::thread solver([&] {
    result = run_shard_worker(owned, corrector, req.b, x_view, transport,
                              board, wo);
    solver_done.signal();
  });
  std::thread heartbeat([&] {
    std::uint64_t seq = 0;
    try {
      do {
        HeartbeatMsg hb;
        hb.shard = static_cast<std::uint32_t>(s);
        hb.commits = static_cast<std::uint64_t>(board.commits(s));
        hb.seq = seq++;
        conn.send_frame(MsgType::kHeartbeat, encode_heartbeat(hb));
      } while (!solver_done.wait_for(opts_.heartbeat_ms));
    } catch (const std::exception&) {
      // Cannot keep beating: drop the connection, so the coordinator
      // reports this worker dead now rather than at its heartbeat timeout
      // (and the session thread below lets the solver finish locally).
      conn.shutdown_both();
    }
  });

  // Session thread: dispatch frames until the solver finishes. Nothing
  // here may throw past the joinable threads (that would std::terminate
  // the daemon): the service_* steps catch their own errors, and a failed
  // poll counts as a lost coordinator.
  std::vector<pollfd> fds;
  std::vector<std::size_t> polled;
  for (;;) {
    try {
      ses.poll_links(fds, polled, &solver_done, -1);
    } catch (const std::exception&) {
      ses.lose_coordinator();  // every peer cut: the solver cannot wait
      break;
    }
    if (fds[0].revents != 0) break;  // the solver returned
    if (fds[1].revents != 0) ses.service_coordinator(true);
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (fds[2 + i].revents != 0) ses.service_link(polled[i], true);
    }
  }
  solver.join();
  heartbeat.join();
  ++solves_;

  if (result.killed && req.crash_after >= 0) {
    ++crashes_;
    return false;  // crash hook: vanish without kSolveDone
  }
  if (ses.coordinator_gone) return true;  // nobody left to report to

  std::uint64_t link_bytes_sent = 0;
  std::uint64_t link_bytes_received = 0;
  for (const auto& link : ses.links) {
    if (link == nullptr) continue;
    link_bytes_sent += link->bytes_sent();
    link_bytes_received += link->bytes_received();
  }
  SolveDoneMsg dm;
  dm.shard = static_cast<std::uint32_t>(s);
  dm.corrections = static_cast<std::uint32_t>(result.corrections);
  dm.reads_dropped = static_cast<std::uint32_t>(result.reads_dropped);
  dm.killed = result.killed ? 1 : 0;
  dm.frames_sent = transport.packets_sent();
  dm.frames_dropped = transport.packets_dropped();
  dm.bytes_sent = link_bytes_sent;
  dm.bytes_received = link_bytes_received;
  dm.x_block.assign(x_view.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                    x_view.begin() + static_cast<std::ptrdiff_t>(rg.end));
  conn.send_frame(MsgType::kSolveDone, encode_solve_done(dm));

  if (opts_.telemetry != nullptr) {
    MetricsRegistry& m = opts_.telemetry->metrics();
    m.counter("net.worker.frames_sent").add(transport.packets_sent());
    m.counter("net.worker.frames_dropped").add(transport.packets_dropped());
    m.counter("net.worker.solves").add(1);
    m.gauge("net.worker.bytes_sent")
        .set(static_cast<double>(link_bytes_sent));
    m.gauge("net.worker.bytes_received")
        .set(static_cast<double>(link_bytes_received));
  }

  // Linger: a slower peer may still be sending its last blocks here. Keep
  // draining the links until the coordinator link turns readable -- its EOF
  // once every worker has reported, or a next frame, which serve() reads --
  // so none of those sends blocks or fails.
  while (!stop_.load(std::memory_order_relaxed)) {
    try {
      if (ses.poll_links(fds, polled, nullptr, 100) == 0) continue;
    } catch (const std::exception&) {
      break;
    }
    if (fds[1].revents != 0) break;
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (fds[2 + i].revents != 0) ses.service_link(polled[i], true);
    }
  }
  bytes_sent_.fetch_add(link_bytes_sent, std::memory_order_relaxed);
  bytes_received_.fetch_add(link_bytes_received, std::memory_order_relaxed);
  return true;
}

std::string WorkerDaemon::stats_json() const {
  std::ostringstream o;
  o << "{\"name\":\"" << opts_.name << "\",\"backend\":\""
    << backend_kind_name(resolve_backend_kind(BackendKind::kAuto))
    << "\",\"solves\":" << solves_
    << ",\"crashes\":" << crashes_ << ",\"setup_cache_hits\":" << cache_hits_
    << ",\"setup_cache_misses\":" << cache_misses_ << ",\"bytes_sent\":"
    << bytes_sent_.load(std::memory_order_relaxed) << ",\"bytes_received\":"
    << bytes_received_.load(std::memory_order_relaxed);
  if (opts_.telemetry != nullptr) {
    o << ",\"metrics\":" << opts_.telemetry->metrics().to_json();
  }
  o << "}";
  return o.str();
}

}  // namespace asyncmg
