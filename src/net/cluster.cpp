#include "net/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "amg/serialize.hpp"
#include "service/fingerprint.hpp"
#include "shard/partition.hpp"
#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/timer.hpp"

namespace asyncmg {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void ClusterOptions::validate() const {
  if (endpoints.empty()) {
    throw std::invalid_argument(
        "ClusterOptions: endpoints must be non-empty");
  }
  if (connect_timeout_ms < 1) {
    throw std::invalid_argument(
        "ClusterOptions: connect_timeout_ms must be >= 1");
  }
  if (connect_attempts < 1) {
    throw std::invalid_argument(
        "ClusterOptions: connect_attempts must be >= 1");
  }
  if (!(heartbeat_timeout_ms > 0.0)) {
    throw std::invalid_argument(
        "ClusterOptions: heartbeat_timeout_ms must be > 0");
  }
  backoff.validate();
}

std::string ClusterResult::to_json() const {
  std::ostringstream o;
  o << "{\"final_rel_res\":" << final_rel_res << ",\"seconds\":" << seconds
    << ",\"reads_dropped\":" << reads_dropped
    << ",\"frames_relayed\":" << frames_relayed
    << ",\"halo_frames\":" << halo_frames
    << ",\"frames_dropped\":" << frames_dropped
    << ",\"bytes_sent\":" << bytes_sent
    << ",\"bytes_received\":" << bytes_received
    << ",\"connect_retries\":" << connect_retries
    << ",\"setup_misses\":" << setup_misses << ",\"corrections\":[";
  for (std::size_t i = 0; i < corrections.size(); ++i) {
    if (i != 0) o << ",";
    o << corrections[i];
  }
  o << "],\"dead_workers\":[";
  for (std::size_t i = 0; i < dead_workers.size(); ++i) {
    if (i != 0) o << ",";
    o << dead_workers[i];
  }
  o << "]}";
  return o.str();
}

ClusterCoordinator::ClusterCoordinator(ClusterOptions opts)
    : opts_(std::move(opts)) {
  opts_.validate();
}

ClusterCoordinator::WorkerLink ClusterCoordinator::connect_worker(
    std::size_t i, std::uint64_t& retries) const {
  BackoffOptions bo = opts_.backoff;
  bo.seed = opts_.backoff.seed + i;  // decorrelate redial storms per worker
  Backoff backoff(bo);
  std::string last_error = "unreachable";
  for (int attempt = 0; attempt < opts_.connect_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff.next_ms()));
    }
    try {
      auto conn = std::make_unique<FrameConn>(
          connect_tcp(opts_.endpoints[i].host, opts_.endpoints[i].port,
                      opts_.connect_timeout_ms));
      // Handshake: the worker announces itself, we assign its shard.
      MsgType type{};
      std::vector<std::uint8_t> payload;
      const RecvStatus st =
          conn->recv_frame(type, payload, opts_.connect_timeout_ms);
      if (st != RecvStatus::kFrame || type != MsgType::kHello) {
        throw SocketError("worker did not say hello");
      }
      HelloMsg hello = decode_hello(payload);
      if (hello.role != WireRole::kWorker ||
          hello.protocol != kWireVersion) {
        throw SocketError("incompatible worker: " + hello.name);
      }
      HelloAckMsg ack;
      ack.shard = static_cast<std::uint32_t>(i);
      ack.num_shards = static_cast<std::uint32_t>(opts_.endpoints.size());
      if (!conn->send_frame(MsgType::kHelloAck, encode_hello_ack(ack))) {
        throw SocketError("worker closed during handshake");
      }
      return {std::move(conn), std::move(hello.setup_keys), hello.data_port};
    } catch (const std::exception& e) {
      last_error = e.what();
    }
  }
  throw SocketError("worker " + std::to_string(i) + " at " +
                    opts_.endpoints[i].host + ":" +
                    std::to_string(opts_.endpoints[i].port) + ": " +
                    last_error);
}

ClusterResult ClusterCoordinator::solve(const MgSetup& setup, const Vector& b,
                                        Vector& x,
                                        const ClusterSolveOptions& so) {
  const std::size_t N = opts_.endpoints.size();
  if (so.t_max < 1) {
    throw std::invalid_argument("ClusterSolveOptions: t_max must be >= 1");
  }
  if (so.max_lag < 0) {
    throw std::invalid_argument("ClusterSolveOptions: max_lag must be >= 0");
  }
  if (!so.crash_after.empty() && so.crash_after.size() != N) {
    throw std::invalid_argument(
        "ClusterSolveOptions: crash_after must be empty or one per shard");
  }
  const std::vector<Range> owned = shard_owned_ranges(setup.a(0), N);
  if (b.size() != static_cast<std::size_t>(setup.a(0).rows()) ||
      x.size() != b.size()) {
    throw std::invalid_argument("ClusterCoordinator: b/x size mismatch");
  }

  Timer timer;
  ClusterResult res;
  res.corrections.assign(N, 0);

  std::vector<std::unique_ptr<FrameConn>> conns(N);
  std::vector<std::vector<std::uint64_t>> cached(N);  // keys per hello
  SolveRequestMsg base;
  for (std::size_t i = 0; i < N; ++i) {
    WorkerLink link = connect_worker(i, res.connect_retries);
    conns[i] = std::move(link.conn);
    cached[i] = std::move(link.setup_keys);
    // A worker's data listener is on the host we dialled it at.
    base.peers.push_back({opts_.endpoints[i].host, link.data_port});
  }

  // One request per worker. A worker whose hello listed the setup key gets
  // the key alone; any other also gets the hierarchy, serialized at most
  // once per solve. Every request names each shard's data endpoint and this
  // solve's link nonce, so the workers link to each other directly.
  std::random_device entropy;
  base.link_nonce = static_cast<std::uint64_t>(entropy()) << 32 | entropy();
  base.link_timeout_ms = static_cast<std::uint32_t>(opts_.connect_timeout_ms);
  base.num_shards = static_cast<std::uint32_t>(N);
  base.bsp = so.bsp ? 1 : 0;
  base.width = opts_.width;
  base.t_max = so.t_max;
  base.max_lag = so.max_lag;
  base.seed = so.seed;
  base.additive_kind = static_cast<std::uint8_t>(so.additive.kind);
  base.symmetrized_lambda = so.additive.symmetrized_lambda ? 1 : 0;
  base.afacx_s1 = so.additive.afacx_s1;
  base.afacx_s2 = so.additive.afacx_s2;
  base.smoother_type =
      static_cast<std::uint8_t>(setup.options().smoother.type);
  base.smoother_omega = setup.options().smoother.omega;
  base.smoother_blocks =
      static_cast<std::uint32_t>(setup.options().smoother.num_blocks);
  base.max_dense_coarse =
      static_cast<std::int64_t>(setup.options().max_dense_coarse);
  base.setup_key = setup_key(setup.hierarchy(), base);
  base.b = b;
  base.x0 = x;
  std::string hierarchy;
  for (std::size_t i = 0; i < N; ++i) {
    SolveRequestMsg req = base;
    req.shard = static_cast<std::uint32_t>(i);
    req.crash_after = so.crash_after.empty() ? -1 : so.crash_after[i];
    if (std::find(cached[i].begin(), cached[i].end(), base.setup_key) ==
        cached[i].end()) {
      if (hierarchy.empty()) {
        hierarchy = save_hierarchy_string(setup.hierarchy());
      }
      req.hierarchy = hierarchy;
      ++res.setup_misses;
    }
    if (!conns[i]->send_frame(MsgType::kSolveRequest,
                              encode_solve_request(req))) {
      throw SocketError("worker " + std::to_string(i) +
                        " closed before the solve started");
    }
  }

  // One reader per worker; the monitor below owns heartbeat timeouts. All
  // shared flags are atomics; bc_mu serializes the dead/done bookkeeping
  // (check-and-set plus target snapshot) so every survivor sees each
  // kPeerDead exactly once -- but the blocking send_frame calls happen
  // OUTSIDE the lock, so a survivor with a full send buffer can never stall
  // another death broadcast or the monitor's mark_dead behind bc_mu.
  std::vector<std::atomic<std::int64_t>> last_seen(N);
  std::vector<std::atomic<bool>> done(N), dead(N);
  for (std::size_t i = 0; i < N; ++i) last_seen[i].store(now_ns());
  std::vector<SolveDoneMsg> results(N);
  std::mutex bc_mu;
  // Each reader bumps `settled` when its worker is done or dead; the
  // monitor below sleeps on settled_cv between heartbeat deadlines.
  std::mutex settled_mu;
  std::condition_variable settled_cv;
  std::uint64_t settled = 0;  // under settled_mu

  auto mark_dead = [&](std::size_t i) {
    std::vector<std::size_t> targets;
    {
      std::lock_guard<std::mutex> lock(bc_mu);
      if (done[i].load() || dead[i].load()) return;
      dead[i].store(true);
      for (std::size_t j = 0; j < N; ++j) {
        if (j != i && !done[j].load() && !dead[j].load()) {
          targets.push_back(j);
        }
      }
    }
    // Cut the dead worker loose FIRST: shutdown_both forces its reader out
    // of poll, so the recovery path never waits on the very connection
    // that stopped draining. A target that died between snapshot and send
    // just fails its send.
    conns[i]->shutdown_both();
    PeerDeadMsg m;
    m.shard = static_cast<std::uint32_t>(i);
    const std::vector<std::uint8_t> payload = encode_peer_dead(m);
    for (std::size_t j : targets) {
      conns[j]->send_frame(MsgType::kPeerDead, payload);
    }
  };

  auto reader = [&](std::size_t i) {
    MsgType type{};
    std::vector<std::uint8_t> payload;
    for (;;) {
      // The whole receive + decode + dispatch step runs under the try: a
      // checksum-valid but semantically invalid frame (decode_* throwing
      // WireError) is as much a protocol violation as a bad checksum, and
      // must end in mark_dead -- never escape the thread function, which
      // would std::terminate the coordinator.
      try {
        const RecvStatus st = conns[i]->recv_frame(type, payload, 50);
        if (st == RecvStatus::kTimeout) {
          if (dead[i].load()) return;  // monitor declared us dead
          continue;
        }
        if (st == RecvStatus::kClosed) {
          mark_dead(i);
          return;
        }
        last_seen[i].store(now_ns(), std::memory_order_relaxed);
        switch (type) {
          case MsgType::kHeartbeat:
            break;  // recency already noted
          case MsgType::kSolveDone: {
            results[i] = decode_solve_done(payload);
            done[i].store(true);
            return;
          }
          case MsgType::kHaloFrame:
            // Blocks travel on the workers' own links, never through here.
            throw WireError("halo frame on a coordinator connection");
          default:
            break;
        }
      } catch (const std::exception&) {
        mark_dead(i);  // protocol violation == lost worker
        return;
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(N);
  for (std::size_t i = 0; i < N; ++i) {
    // Every way out of reader() leaves worker i done or dead.
    readers.emplace_back([&, i] {
      reader(i);
      {
        std::lock_guard<std::mutex> lock(settled_mu);
        ++settled;
      }
      settled_cv.notify_one();
    });
  }

  // Monitor: heartbeat-recency dead-peer detection. It sleeps until the
  // earliest heartbeat deadline of a running worker or until a reader
  // settles one, so the solve ends as soon as the last worker settles.
  const auto timeout_ns = static_cast<std::int64_t>(
      opts_.heartbeat_timeout_ms * 1e6);
  for (;;) {
    std::uint64_t seen = 0;
    {
      std::lock_guard<std::mutex> lock(settled_mu);
      seen = settled;
    }
    bool all_settled = true;
    std::int64_t wake_ns = now_ns() + timeout_ns;
    for (std::size_t i = 0; i < N; ++i) {
      if (done[i].load() || dead[i].load()) continue;
      all_settled = false;
      const std::int64_t deadline =
          last_seen[i].load(std::memory_order_relaxed) + timeout_ns;
      if (now_ns() > deadline) {
        mark_dead(i);
      } else {
        wake_ns = std::min(wake_ns, deadline);
      }
    }
    if (all_settled) break;
    std::unique_lock<std::mutex> lock(settled_mu);
    settled_cv.wait_until(
        lock,
        std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(wake_ns)),
        [&] { return settled != seen; });
  }
  for (std::thread& t : readers) t.join();

  // Criterion-2 assembly: survivors' owned blocks land in x, a dead
  // worker's rows keep the initial iterate (frozen, exactly like a killed
  // in-process shard), and the residual is computed against the true
  // operator so recovery claims are measured, not assumed.
  for (std::size_t i = 0; i < N; ++i) {
    if (done[i].load()) {
      const Range rg = owned[i];
      const SolveDoneMsg& dm = results[i];
      if (dm.x_block.size() == rg.size()) {
        std::copy(dm.x_block.begin(), dm.x_block.end(),
                  x.begin() + static_cast<std::ptrdiff_t>(rg.begin));
      }
      res.corrections[i] = static_cast<int>(dm.corrections);
      res.reads_dropped += static_cast<int>(dm.reads_dropped);
      res.halo_frames += dm.frames_sent;
      res.frames_dropped += dm.frames_dropped;
      res.bytes_sent += dm.bytes_sent;
      res.bytes_received += dm.bytes_received;
    } else {
      res.dead_workers.push_back(i);
    }
    res.bytes_sent += conns[i]->bytes_sent();
    res.bytes_received += conns[i]->bytes_received();
  }
  res.seconds = timer.seconds();

  Vector r;
  setup.a(0).residual(b, x, r);
  const double bnorm = norm2(b);
  res.final_rel_res = norm2(r) * (bnorm > 0.0 ? 1.0 / bnorm : 1.0);

  if (opts_.telemetry != nullptr) {
    MetricsRegistry& m = opts_.telemetry->metrics();
    m.counter("net.cluster.halo_frames").add(res.halo_frames);
    m.counter("net.cluster.solves").add(1);
    m.counter("net.cluster.dead_workers").add(res.dead_workers.size());
    m.counter("net.cluster.connect_retries").add(res.connect_retries);
  }
  return res;
}

std::string ClusterCoordinator::stats_json() const {
  std::ostringstream o;
  o << "{\"workers\":[";
  for (std::size_t i = 0; i < opts_.endpoints.size(); ++i) {
    if (i != 0) o << ",";
    std::string json = "null";
    try {
      std::uint64_t retries = 0;
      const std::unique_ptr<FrameConn> conn =
          connect_worker(i, retries).conn;
      conn->send_frame(MsgType::kStatsRequest, {});
      MsgType type{};
      std::vector<std::uint8_t> payload;
      while (conn->recv_frame(type, payload, opts_.connect_timeout_ms) ==
             RecvStatus::kFrame) {
        if (type == MsgType::kStatsResponse) {
          json = decode_stats_response(payload).json;
          break;
        }
      }
    } catch (const std::exception&) {
      json = "null";  // unreachable worker reports as null
    }
    o << json;
  }
  o << "]}";
  return o.str();
}

void ClusterCoordinator::shutdown_workers() const {
  for (std::size_t i = 0; i < opts_.endpoints.size(); ++i) {
    try {
      std::uint64_t retries = 0;
      connect_worker(i, retries).conn->send_frame(MsgType::kShutdown, {});
    } catch (const std::exception&) {
      // Already gone is as good as shut down.
    }
  }
}

// ---------------------------------------------------------------------------
// ClusterRouter
// ---------------------------------------------------------------------------

void ClusterRouterOptions::validate() const {
  if (endpoints.empty()) {
    throw std::invalid_argument(
        "ClusterRouterOptions: endpoints must be non-empty");
  }
  if (shards_per_solve < 1 || shards_per_solve > endpoints.size()) {
    throw std::invalid_argument(
        "ClusterRouterOptions: shards_per_solve must be in [1, endpoints]");
  }
  if (vnodes_per_endpoint < 1) {
    throw std::invalid_argument(
        "ClusterRouterOptions: vnodes_per_endpoint must be >= 1");
  }
}

ClusterRouter::ClusterRouter(ClusterRouterOptions opts)
    : opts_(std::move(opts)) {
  opts_.validate();
  ring_ = build_hash_ring(opts_.endpoints.size(), opts_.vnodes_per_endpoint,
                          opts_.ring_seed);
  routed_per_endpoint_.assign(opts_.endpoints.size(), 0);
}

std::vector<std::size_t> ClusterRouter::endpoints_for(
    const CsrMatrix& a) const {
  return select_backends(ring_, ring_key(matrix_fingerprint(a)),
                         opts_.shards_per_solve);
}

ClusterResult ClusterRouter::solve(const MgSetup& setup, const Vector& b,
                                   Vector& x, const ClusterSolveOptions& so) {
  const std::vector<std::size_t> picked = endpoints_for(setup.a(0));
  ClusterOptions co = opts_.cluster;
  co.endpoints.clear();
  for (std::size_t e : picked) {
    co.endpoints.push_back(opts_.endpoints[e]);
    ++routed_per_endpoint_[e];
  }
  ++routed_;
  ClusterCoordinator coordinator(std::move(co));
  return coordinator.solve(setup, b, x, so);
}

std::string ClusterRouter::stats_json() const {
  std::ostringstream o;
  o << "{\"routed\":" << routed_ << ",\"routed_per_endpoint\":[";
  for (std::size_t i = 0; i < routed_per_endpoint_.size(); ++i) {
    if (i != 0) o << ",";
    o << routed_per_endpoint_[i];
  }
  o << "],\"fleet\":[";
  for (std::size_t i = 0; i < opts_.endpoints.size(); ++i) {
    if (i != 0) o << ",";
    ClusterOptions co = opts_.cluster;
    co.endpoints = {opts_.endpoints[i]};
    co.connect_attempts = 1;
    std::string json = "null";
    try {
      const ClusterCoordinator one(std::move(co));
      const std::string fleet = one.stats_json();
      // one.stats_json() == {"workers":[<json>]}; splice the single entry.
      const std::size_t b0 = fleet.find('[');
      const std::size_t b1 = fleet.rfind(']');
      if (b0 != std::string::npos && b1 != std::string::npos && b1 > b0) {
        json = fleet.substr(b0 + 1, b1 - b0 - 1);
      }
    } catch (const std::exception&) {
    }
    o << json;
  }
  o << "]}";
  return o.str();
}

}  // namespace asyncmg
