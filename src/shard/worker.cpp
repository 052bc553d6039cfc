#include "shard/worker.hpp"

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
                 std::size_t p, HaloTag tag, HaloPacket& pkt) {
  int spins = 0;
  for (;;) {
    if (transport.recv_next(s, p, tag, pkt)) return true;
    if (board.dead(p)) return transport.recv_next(s, p, tag, pkt);
    transport.wait_next(s, p, tag, ++spins);
  }
}

}  // namespace

ShardWorkerResult run_shard_worker(const ShardPlan& plan,
                                   const AdditiveCorrector& corrector,
                                   const Vector& b, Vector& x_local,
                                   Vector& r_view, Transport& transport,
                                   PeerBoard& board,
                                   const ShardWorkerOptions& opts) {
  const std::size_t s = opts.shard;
  const std::size_t S = plan.num_shards;
  const Range rg = plan.owned[s];
  const FaultPlan* const faults = opts.faults;
  TelemetrySink* const tel =
      (opts.telemetry != nullptr && opts.telemetry->enabled())
          ? opts.telemetry
          : nullptr;

  ShardWorkerResult result;
  Vector staging(b.size(), 0.0);
  Vector ctmp;
  CorrectionScratch ws;
  HaloPacket pkt;

  // Newest-wins refresh of ghosts and foreign residual rows (free-running
  // discipline; also the gate's drain while waiting). A packet whose length
  // disagrees with the plan is discarded -- lost-message semantics, so no
  // Transport implementation can make these loops read or write outside the
  // plan's ranges (socket transports additionally validate at delivery).
  auto drain = [&]() {
    int got = 0;
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s) continue;
      if (transport.recv_latest(s, p, HaloTag::kBoundaryX, pkt)) {
        const auto& slots = plan.ghost_slots[s][p];
        if (pkt.data.size() == slots.size()) {
          for (std::size_t i = 0; i < slots.size(); ++i) {
            x_local[slots[i]] = pkt.data[i];
          }
          ++got;
        }
      }
      if (transport.recv_latest(s, p, HaloTag::kResidualBlock, pkt)) {
        const Range prg = plan.owned[p];
        if (pkt.data.size() == prg.size()) {
          std::copy(pkt.data.begin(), pkt.data.end(),
                    r_view.begin() + static_cast<std::ptrdiff_t>(prg.begin));
          ++got;
        }
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
  auto publish_residual = [&](int c) {
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s) continue;
      HaloPacket out;
      out.seq = static_cast<std::uint64_t>(c);
      out.data.assign(
          r_view.begin() + static_cast<std::ptrdiff_t>(rg.begin),
          r_view.begin() + static_cast<std::ptrdiff_t>(rg.end));
      if (!transport.send(s, p, HaloTag::kResidualBlock, std::move(out)) &&
          tel != nullptr) {
        tel->record(s, EventKind::kShardDrop, static_cast<std::int64_t>(s),
                    static_cast<std::int64_t>(p));
      }
    }
  };
  auto publish_boundary = [&](int c) {
    for (std::size_t p = 0; p < S; ++p) {
      if (p == s || plan.send[s][p].empty()) continue;
      HaloPacket out;
      out.seq = static_cast<std::uint64_t>(c + 1);
      out.data.resize(plan.send[s][p].size());
      for (std::size_t i = 0; i < out.data.size(); ++i) {
        out.data[i] =
            x_local[static_cast<std::size_t>(plan.send[s][p][i]) - rg.begin];
      }
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

    if (opts.bsp) {
      // Round step 1: boundary frames of this round (ghosts = x after round
      // c - 1). Round 0 starts from the shared initial iterate.
      int got = 0;
      if (c > 0 && !drop_read) {
        for (std::size_t p = 0; p < S; ++p) {
          if (p == s || plan.send[p][s].empty()) continue;
          if (await_frame(transport, board, s, p, HaloTag::kBoundaryX, pkt)) {
            const auto& slots = plan.ghost_slots[s][p];
            if (pkt.data.size() == slots.size()) {
              for (std::size_t i = 0; i < slots.size(); ++i) {
                x_local[slots[i]] = pkt.data[i];
              }
              ++got;
            }
          }
        }
      }
      const std::int64_t t0 = tel != nullptr ? tel->clock().now_ns() : 0;
      // Step 2: own residual rows from the round's ghosts; publish before
      // waiting so the round's residual exchange can never cycle-wait.
      plan.local_a[s].residual_into(b, x_local, r_view);
      publish_residual(c);
      // Step 3: every live peer's residual block of THIS round -- the view
      // is globally fresh, which is what makes the discipline replay the
      // scripted full-schedule oracle bitwise.
      if (!drop_read) {
        for (std::size_t p = 0; p < S; ++p) {
          if (p == s) continue;
          if (await_frame(transport, board, s, p, HaloTag::kResidualBlock,
                          pkt)) {
            const Range prg = plan.owned[p];
            if (pkt.data.size() == prg.size()) {
              std::copy(
                  pkt.data.begin(), pkt.data.end(),
                  r_view.begin() + static_cast<std::ptrdiff_t>(prg.begin));
              ++got;
            }
          }
        }
      }
      if (tel != nullptr && got > 0) {
        tel->record(s, EventKind::kShardExchange,
                    static_cast<std::int64_t>(s), got);
      }
      // Step 4: correct, commit owned rows, publish the new boundary.
      std::fill(staging.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                staging.begin() + static_cast<std::ptrdiff_t>(rg.end), 0.0);
      corrector.accumulate_cycle(r_view, staging, rg.begin, rg.end, ws,
                                 ctmp);
      for (std::size_t i = rg.begin; i < rg.end; ++i) {
        x_local[i - rg.begin] += staging[i];
      }
      publish_boundary(c);
      ++result.corrections;
      board.publish_commits(s, c + 1);
      if (tel != nullptr) {
        tel->record_at(s, t0, EventKind::kShardStep,
                       static_cast<std::int64_t>(s),
                       tel->clock().now_ns() - t0);
      }
      continue;
    }

    // Free-running discipline (PR 6 loop, verbatim semantics).
    //
    // Staleness gate (max_lag): run at most max_lag corrections ahead of
    // the slowest live peer, draining channels while waiting. Bounded skew
    // plus newest-wins channels is the executor's realization of the
    // model's bounded read delay.
    while (!within_lag(c)) {
      drain();
      std::this_thread::yield();
    }
    // Refresh the halo and the foreign residual view from whatever has
    // arrived; a dropped read keeps the stale view (lost message).
    if (!drop_read) {
      const int got = drain();
      if (tel != nullptr && got > 0) {
        tel->record(s, EventKind::kShardExchange,
                    static_cast<std::int64_t>(s), got);
      }
    }

    const std::int64_t t0 = tel != nullptr ? tel->clock().now_ns() : 0;
    // Own residual rows from the (possibly stale) halo; publish the block
    // (pre-correction) to every peer.
    plan.local_a[s].residual_into(b, x_local, r_view);
    publish_residual(c);
    // Full additive correction from the shard's residual view; commit the
    // owned rows only, then publish the committed boundary values.
    std::fill(staging.begin() + static_cast<std::ptrdiff_t>(rg.begin),
              staging.begin() + static_cast<std::ptrdiff_t>(rg.end), 0.0);
    corrector.accumulate_cycle(r_view, staging, rg.begin, rg.end, ws, ctmp);
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      x_local[i - rg.begin] += staging[i];
    }
    publish_boundary(c);
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

void shard_local_view(const ShardPlan& plan, std::size_t s, const Vector& x,
                      Vector& x_local) {
  const Range rg = plan.owned[s];
  x_local.resize(plan.local_size(s));
  std::copy(x.begin() + static_cast<std::ptrdiff_t>(rg.begin),
            x.begin() + static_cast<std::ptrdiff_t>(rg.end), x_local.begin());
  const auto& h = plan.halo[s];
  for (std::size_t pos = 0; pos < h.size(); ++pos) {
    x_local[rg.size() + pos] = x[static_cast<std::size_t>(h[pos])];
  }
}

void shard_initial_residual(const ShardPlan& plan, const Vector& b,
                            const Vector& x, Vector& r) {
  r.resize(b.size());
  Vector x_local;
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    shard_local_view(plan, s, x, x_local);
    plan.local_a[s].residual_into(b, x_local, r);
  }
}

}  // namespace asyncmg
