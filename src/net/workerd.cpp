#include "net/workerd.hpp"

#include <algorithm>
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
    : opts_(opts), listener_((opts.validate(), opts.port)) {}

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
        case MsgType::kSolveRequest: {
          const SolveRequestMsg req = decode_solve_request(payload);
          if (!handle_solve(conn, req, setup_for(req))) {
            return SessionEnd::kCrashed;
          }
          break;
        }
        case MsgType::kStatsRequest: {
          StatsResponseMsg m;
          m.json = stats_json();
          conn.send_frame(MsgType::kStatsResponse, encode_stats_response(m));
          break;
        }
        case MsgType::kShutdown:
          return SessionEnd::kShutdown;
        default:
          break;  // stray data-plane frames outside a solve
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

bool WorkerDaemon::handle_solve(FrameConn& conn, const SolveRequestMsg& req,
                                const MgSetup& setup) {
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
  sto.conn = &conn;
  // Plan-derived payload lengths: deliver() drops any wire frame whose
  // length disagrees, so peers (or the relay) can never feed the solver a
  // wrong-sized block.
  sto.expect_boundary.resize(req.num_shards, 0);
  for (std::size_t p = 0; p < req.num_shards; ++p) {
    if (p != s) sto.expect_boundary[p] = owned[p].size();
  }
  SocketTransport transport(sto);
  NetPeerBoard board(req.num_shards, s, &conn);

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

  // A dead peer's edges will never fill again: mark it on the board, then
  // wake the solver if it is waiting on one of them.
  auto peer_dead = [&](std::size_t p) {
    board.apply_dead(p);
    transport.peer_dead(p);
  };
  // The solver's return ends both helpers at once: the heartbeat thread
  // waits on solver_done between beats, the reader polls it beside the
  // socket.
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
      // (and the reader below lets the solver finish locally).
      conn.shutdown_both();
    }
  });

  // Reader: dispatch frames until the solver finishes.
  MsgType type{};
  std::vector<std::uint8_t> payload;
  bool coordinator_gone = false;
  for (;;) {
    // The whole receive + decode + dispatch step runs under the try: the
    // solver and heartbeat threads are joinable here, so no exception may
    // unwind past this loop (that would std::terminate the daemon). A
    // malformed frame -- truncated, bad checksum, OR checksum-valid but
    // semantically invalid -- is a protocol violation and means the
    // coordinator can no longer be trusted: treat it exactly like a closed
    // connection.
    bool lost = false;
    try {
      const RecvStatus st = conn.recv_frame(type, payload, -1, &solver_done);
      if (st == RecvStatus::kWoken) break;  // the solver returned
      if (st != RecvStatus::kFrame) {
        lost = true;
      } else {
        switch (type) {
          case MsgType::kHaloFrame:
            transport.deliver(decode_halo_frame(payload));
            break;
          case MsgType::kProgress:
            board.apply_progress(decode_progress(payload));
            break;
          case MsgType::kPeerDead:
            peer_dead(decode_peer_dead(payload).shard);
            break;
          case MsgType::kShutdown:
            stop_.store(true, std::memory_order_relaxed);
            break;
          default:
            break;
        }
      }
    } catch (const std::exception&) {
      lost = true;  // protocol violation: treat as lost link
    }
    if (lost) {
      // Coordinator lost: no relay will ever arrive again. Mark every peer
      // dead so the solver finishes from its current view instead of
      // waiting forever -- Criterion-2 from the worker's side.
      coordinator_gone = true;
      for (std::size_t p = 0; p < req.num_shards; ++p) {
        if (p != s) peer_dead(p);
      }
      break;
    }
  }
  solver.join();
  heartbeat.join();
  ++solves_;

  if (result.killed && req.crash_after >= 0) {
    ++crashes_;
    return false;  // crash hook: vanish without kSolveDone
  }
  if (coordinator_gone) return true;  // nobody left to report to

  SolveDoneMsg dm;
  dm.shard = static_cast<std::uint32_t>(s);
  dm.corrections = static_cast<std::uint32_t>(result.corrections);
  dm.reads_dropped = static_cast<std::uint32_t>(result.reads_dropped);
  dm.killed = result.killed ? 1 : 0;
  dm.frames_sent = transport.packets_sent();
  dm.frames_dropped = transport.packets_dropped();
  dm.bytes_sent = conn.bytes_sent();
  dm.bytes_received = conn.bytes_received();
  dm.x_block.assign(x_view.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                    x_view.begin() + static_cast<std::ptrdiff_t>(rg.end));
  conn.send_frame(MsgType::kSolveDone, encode_solve_done(dm));

  if (opts_.telemetry != nullptr) {
    MetricsRegistry& m = opts_.telemetry->metrics();
    m.counter("net.worker.frames_sent").add(transport.packets_sent());
    m.counter("net.worker.frames_dropped").add(transport.packets_dropped());
    m.counter("net.worker.solves").add(1);
    m.gauge("net.worker.bytes_sent")
        .set(static_cast<double>(conn.bytes_sent()));
    m.gauge("net.worker.bytes_received")
        .set(static_cast<double>(conn.bytes_received()));
  }
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
