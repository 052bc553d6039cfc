#include "shard/worker.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "telemetry/sink.hpp"

namespace asyncmg {

namespace {

/// BSP wait: FIFO-pops the next frame from `p`, pausing in
/// Transport::wait_next until one arrives or `p` is dead. Publishes
/// happen-before a peer's death (its frames were queued before the dead
/// flag was raised and transports deliver per-edge in order), so one final
/// recv after observing death is enough to consume anything it managed to
/// publish; after that the caller keeps its stale view -- lost-message
/// semantics, never a deadlock.
bool await_frame(Transport& transport, const PeerBoard& board, std::size_t s,
                 std::size_t p, HaloPacket& pkt) {
  int spins = 0;
  for (;;) {
    if (transport.recv_next(s, p, HaloTag::kBoundaryX, pkt)) return true;
    if (board.dead(p)) {
      return transport.recv_next(s, p, HaloTag::kBoundaryX, pkt);
    }
    transport.wait_next(s, p, HaloTag::kBoundaryX, ++spins);
  }
}

}  // namespace

ShardWorkerResult run_shard_worker(const std::vector<Range>& owned,
                                   const AdditiveCorrector& corrector,
                                   const Vector& b, Vector& x_view,
                                   Transport& transport, PeerBoard& board,
                                   const ShardWorkerOptions& opts) {
  const std::size_t s = opts.shard;
  const std::size_t S = owned.size();
  const Range rg = owned[s];
  const CsrMatrix& a = corrector.setup().a(0);
  const FaultPlan* const faults = opts.faults;
  TelemetrySink* const tel =
      (opts.telemetry != nullptr && opts.telemetry->enabled())
          ? opts.telemetry
          : nullptr;

  ShardWorkerResult result;
  Vector r;
  Vector staging(b.size(), 0.0);
  Vector ctmp;
  CorrectionScratch ws;
  HaloPacket pkt;

  // Writes the received block of peer p into the view. A packet whose
  // length is not p's owned-block length is discarded -- lost-message
  // semantics, so no Transport implementation can make the loop write
  // outside the owned ranges (socket transports additionally validate at
  // delivery).
  auto apply_block = [&](std::size_t p) {
    const Range prg = owned[p];
    if (pkt.data.size() != prg.size()) return false;
    std::copy(pkt.data.begin(), pkt.data.end(),
              x_view.begin() + static_cast<std::ptrdiff_t>(prg.begin));
    return true;
  };
  // Newest-wins refresh of every peer's block (free-running discipline;
  // also the gate's drain while waiting).
  auto drain = [&]() {
    int got = 0;
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s) continue;
      if (transport.recv_latest(s, p, HaloTag::kBoundaryX, pkt) &&
          apply_block(p)) {
        ++got;
      }
    }
    return got;
  };
  auto within_lag = [&](int c) {
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s || board.dead(p)) continue;
      if (board.commits(p) < c - opts.max_lag) return false;
    }
    return true;
  };
  auto publish_block = [&](int c) {
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s) continue;
      HaloPacket out;
      out.seq = static_cast<std::uint64_t>(c + 1);
      out.data.assign(x_view.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                      x_view.begin() + static_cast<std::ptrdiff_t>(rg.end));
      if (!transport.send(s, p, HaloTag::kBoundaryX, std::move(out)) &&
          tel != nullptr) {
        tel->record(s, EventKind::kShardDrop, static_cast<std::int64_t>(s),
                    static_cast<std::int64_t>(p));
      }
    }
  };

  for (int c = 0; c < opts.t_max; ++c) {
    if (faults != nullptr && faults->kills_grid(s, c)) {
      result.killed = true;
      break;
    }
    if (faults != nullptr) {
      const double ms = faults->stall_ms(s, c);
      if (ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      }
    }
    const bool drop_read = faults != nullptr && faults->drops_read(s, c);
    if (drop_read) {
      ++result.reads_dropped;
      if (tel != nullptr) {
        tel->record(s, EventKind::kShardDrop, static_cast<std::int64_t>(s),
                    -1);
      }
    }

    // Refresh the view; a dropped read keeps the stale one (lost message).
    int got = 0;
    if (opts.bsp) {
      // Every live peer's block of round c - 1; round 0 starts from the
      // shared initial iterate.
      if (c > 0 && !drop_read) {
        for (std::size_t p = 0; p < S; ++p) {
          if (p == s) continue;
          if (await_frame(transport, board, s, p, pkt) && apply_block(p)) {
            ++got;
          }
        }
      }
    } else {
      // Staleness gate (max_lag): run at most max_lag corrections ahead of
      // the slowest live peer, draining channels while waiting. Bounded
      // skew plus newest-wins channels is the executor's realization of
      // the model's bounded read delay.
      while (!within_lag(c)) {
        drain();
        std::this_thread::yield();
      }
      if (!drop_read) got = drain();
    }
    if (tel != nullptr && got > 0) {
      tel->record(s, EventKind::kShardExchange, static_cast<std::int64_t>(s),
                  got);
    }

    const std::int64_t t0 = tel != nullptr ? tel->clock().now_ns() : 0;
    // Local-res correction: the whole fine residual from this shard's view
    // of x, the full additive correction from it, own rows committed.
    a.residual(b, x_view, r);
    std::fill(staging.begin() + static_cast<std::ptrdiff_t>(rg.begin),
              staging.begin() + static_cast<std::ptrdiff_t>(rg.end), 0.0);
    corrector.accumulate_cycle(r, staging, rg.begin, rg.end, ws, ctmp);
    for (std::size_t i = rg.begin; i < rg.end; ++i) x_view[i] += staging[i];
    publish_block(c);
    ++result.corrections;
    board.publish_commits(s, c + 1);
    if (tel != nullptr) {
      tel->record_at(s, t0, EventKind::kShardStep,
                     static_cast<std::int64_t>(s),
                     tel->clock().now_ns() - t0);
    }
  }
  board.publish_dead(s);
  return result;
}

}  // namespace asyncmg
