#pragma once
// ShardedSolver: executes (not simulates) multi-shard asynchronous additive
// multigrid -- the distributed extension the paper's conclusion points to,
// promoted from the discrete-event model in async/distributed.
//
// The fine grid is split into contiguous row blocks by the deterministic
// partitioner (shard/partition.hpp). Each shard owns its block of x and
// keeps a view of the rest: the newest block it has received from each
// peer. Coarse levels are replicated per shard (in process they share the
// immutable MgSetup -- worker processes cache a copy each, see src/net), so
// every shard computes the whole fine residual from its view of x, forms
// the full additive correction from it, and commits only the rows it owns.
// This is the paper's local-res discipline (Section IV) across shard
// boundaries: a shard computes the residual it needs itself, trusts its
// possibly-stale view of its peers' blocks, and never waits for anyone.
// Residuals never cross a shard boundary; only blocks of x do.
//
// Three execution disciplines, mirroring the async runtime's drivers:
//
//   kSynchronous   bulk-synchronous rounds with fresh reads -- replays the
//                  canonical full schedule; bitwise-identical to the
//                  single-shard run at ANY shard count (the oracle), and to
//                  replay_semiasync_schedule on the all-grids-fresh
//                  schedule for one shard.
//   kScripted      deterministic replay of a Schedule whose events are
//                  (shard, read-instant) pairs: a scheduled shard reads its
//                  peers' blocks from the x snapshot of its read instant
//                  (its own rows are always current -- they live on the
//                  shard), corrections of an instant commit jointly.
//                  Bitwise reproducible across runs.
//   kAsynchronous  one free-running thread per shard over the lock-free
//                  channel transport: stale blocks, dropped exchanges (full
//                  channels or FaultPlan drop-reads), Criterion-2 style
//                  recovery -- a killed shard's block simply stops moving
//                  and nobody deadlocks waiting for it.

#include <cstdint>

#include "async/schedule.hpp"
#include "multigrid/additive.hpp"
#include "shard/partition.hpp"
#include "shard/transport.hpp"

namespace asyncmg {

class TelemetrySink;

enum class ShardMode {
  kSynchronous,
  kAsynchronous,
  kScripted,
  /// Bulk-synchronous rounds executed over the Transport (one thread per
  /// shard, real message exchange, one x-block exchange per round --
  /// shard/worker.hpp). Bitwise identical to kSynchronous at any shard
  /// count, and to the same discipline run across processes over TCP
  /// (src/net): this is the loopback oracle for the multi-process service.
  kSyncTransport,
};

std::string shard_mode_name(ShardMode m);

struct ShardOptions {
  std::size_t num_shards = 2;
  ShardMode mode = ShardMode::kSynchronous;
  /// Corrections (additive cycles) per shard.
  int t_max = 20;
  /// Channel transport: ring capacity per directed edge; a full ring drops
  /// the packet and the receiver keeps its stale view.
  std::size_t channel_capacity = 8;
  /// Mean one-way message latency in microseconds (async mode; visibility
  /// delay, the sender never blocks).
  double latency_us = 0.0;
  /// Async mode: bounded skew -- a shard runs at most max_lag corrections
  /// ahead of the slowest live peer (draining channels while it waits).
  /// Together with the newest-wins channels this realizes the Section-III
  /// bounded read delay (delta) at shard granularity; without it a shard
  /// that wins the thread-start race free-runs against its peers' initial
  /// blocks and convergence stalls (the divergence scenarios the scripted harness
  /// probes). Dead (killed / finished) peers are exempt, so Criterion-2
  /// recovery still holds, and the slowest live shard never waits, so the
  /// gate cannot deadlock.
  int max_lag = 3;
  /// kScripted: the interleaving to replay (events are (shard, read
  /// instant) pairs). Not owned; must outlive the call. When null, one is
  /// sampled with sample_schedule(num_shards, {script_alpha,
  /// script_max_delay, t_max, seed}) -- the Section-III randomness at shard
  /// granularity.
  const Schedule* schedule = nullptr;
  double script_alpha = 1.0;
  int script_max_delay = 0;
  std::uint64_t seed = 1;
  /// Fault injection (async mode; grid ids are shard ids): stalls sleep the
  /// shard, drop-reads skip a refresh (the shard keeps its stale view),
  /// kills retire the shard permanently. Not owned; must outlive the call.
  const FaultPlan* faults = nullptr;
  /// Record ||b - A x||/||b|| after every instant (scripted/sync; one
  /// global SpMV per instant).
  bool record_history = false;
  /// Telemetry sink: scripted/sync record logical-time events from tid 0
  /// (deterministic traces); async records per-shard wall-time events on
  /// tid = shard, displayed on per-shard trace tracks. Not owned.
  TelemetrySink* telemetry = nullptr;

  /// Throws std::invalid_argument with a field-naming message on the first
  /// invalid setting.
  void validate() const;
};

struct ShardResult {
  double final_rel_res = 1.0;
  double seconds = 0.0;
  /// Time instants executed (scripted/sync; 0 for async).
  int instants = 0;
  std::vector<int> corrections;  // per shard
  /// Channel transport counters (async mode).
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  /// FaultPlan drop-read refreshes skipped.
  int reads_dropped = 0;
  std::vector<std::size_t> killed_shards;
  std::vector<double> rel_res_history;
  double mean_corrections() const;
  /// Compact JSON object: mode-independent solve facts plus the transport
  /// counters (packets sent / dropped, drop-read count) that used to live
  /// only in these fields.
  std::string to_json() const;
};

class ShardedSolver {
 public:
  /// Validates `so` and builds the partition plan for setup's fine matrix.
  ShardedSolver(const MgSetup& setup, AdditiveOptions ao, ShardOptions so);

  const ShardPlan& plan() const { return plan_; }
  const ShardOptions& options() const { return opts_; }

  /// Solves A x = b with t_max corrections per shard; x is updated in
  /// place (full-length global vector).
  ShardResult solve(const Vector& b, Vector& x);

 private:
  ShardResult run_scripted(const Schedule& sched, const Vector& b, Vector& x);
  /// One thread per shard over a ChannelTransport; `bsp` selects the
  /// deterministic bulk-synchronous rounds (kSyncTransport) instead of the
  /// free-running discipline (kAsynchronous).
  ShardResult run_async(const Vector& b, Vector& x, bool bsp);
  double rel_res(const Vector& b, const Vector& x) const;

  const MgSetup* setup_;
  AdditiveCorrector corrector_;
  ShardOptions opts_;
  ShardPlan plan_;
};

}  // namespace asyncmg
