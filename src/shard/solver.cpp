#include "shard/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include <sstream>

#include "async/model.hpp"
#include "shard/worker.hpp"
#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/timer.hpp"

namespace asyncmg {

std::string shard_mode_name(ShardMode m) {
  switch (m) {
    case ShardMode::kSynchronous:
      return "sync";
    case ShardMode::kAsynchronous:
      return "async";
    case ShardMode::kScripted:
      return "scripted";
    case ShardMode::kSyncTransport:
      return "sync-transport";
  }
  return "unknown";
}

void ShardOptions::validate() const {
  if (num_shards < 1) {
    throw std::invalid_argument("ShardOptions: num_shards must be >= 1");
  }
  if (t_max < 1) {
    throw std::invalid_argument("ShardOptions: t_max must be >= 1");
  }
  if (channel_capacity < 1) {
    throw std::invalid_argument(
        "ShardOptions: channel_capacity must be >= 1");
  }
  if (!(latency_us >= 0.0) || !std::isfinite(latency_us)) {
    throw std::invalid_argument(
        "ShardOptions: latency_us must be finite and >= 0");
  }
  if (max_lag < 0) {
    throw std::invalid_argument("ShardOptions: max_lag must be >= 0");
  }
  if (!(script_alpha > 0.0) || script_alpha > 1.0) {
    throw std::invalid_argument(
        "ShardOptions: script_alpha must be in (0, 1]");
  }
  if (script_max_delay < 0) {
    throw std::invalid_argument(
        "ShardOptions: script_max_delay must be >= 0");
  }
}

double ShardResult::mean_corrections() const {
  if (corrections.empty()) return 0.0;
  double s = 0.0;
  for (int c : corrections) s += c;
  return s / static_cast<double>(corrections.size());
}

std::string ShardResult::to_json() const {
  std::ostringstream o;
  o << "{\"final_rel_res\":" << final_rel_res << ",\"seconds\":" << seconds
    << ",\"instants\":" << instants
    << ",\"mean_corrections\":" << mean_corrections()
    << ",\"packets_sent\":" << packets_sent
    << ",\"packets_dropped\":" << packets_dropped
    << ",\"reads_dropped\":" << reads_dropped << ",\"killed_shards\":[";
  for (std::size_t i = 0; i < killed_shards.size(); ++i) {
    if (i != 0) o << ",";
    o << killed_shards[i];
  }
  o << "]}";
  return o.str();
}

namespace {

/// Ring buffer of the last `depth` snapshots, indexed by absolute instant
/// (same shape as the model simulator's history window).
class History {
 public:
  History(int depth, const Vector& initial)
      : depth_(depth),
        snapshots_(static_cast<std::size_t>(depth), initial) {}

  const Vector& at(int t) const {
    return snapshots_[static_cast<std::size_t>(t % depth_)];
  }
  void push(int t, const Vector& state) {
    snapshots_[static_cast<std::size_t>(t % depth_)] = state;
  }

 private:
  int depth_;
  std::vector<Vector> snapshots_;
};

}  // namespace

ShardedSolver::ShardedSolver(const MgSetup& setup, AdditiveOptions ao,
                             ShardOptions so)
    : setup_(&setup), corrector_(setup, ao), opts_(so) {
  opts_.validate();
  plan_ = make_shard_plan(setup.a(0), opts_.num_shards);
}

double ShardedSolver::rel_res(const Vector& b, const Vector& x) const {
  Vector r;
  setup_->a(0).residual(b, x, r);
  const double bnorm = norm2(b);
  return norm2(r) * (bnorm > 0.0 ? 1.0 / bnorm : 1.0);
}

ShardResult ShardedSolver::solve(const Vector& b, Vector& x) {
  if (b.size() != static_cast<std::size_t>(plan_.n) || x.size() != b.size()) {
    throw std::invalid_argument("ShardedSolver: b/x size mismatch");
  }
  switch (opts_.mode) {
    case ShardMode::kSynchronous:
      return run_scripted(full_schedule(plan_.num_shards, opts_.t_max), b, x);
    case ShardMode::kScripted: {
      if (opts_.schedule != nullptr) {
        return run_scripted(*opts_.schedule, b, x);
      }
      AsyncModelOptions mo;
      mo.alpha = opts_.script_alpha;
      mo.max_delay = opts_.script_max_delay;
      mo.updates_per_grid = opts_.t_max;
      mo.seed = opts_.seed;
      return run_scripted(sample_schedule(plan_.num_shards, mo), b, x);
    }
    case ShardMode::kAsynchronous:
      return run_async(b, x, /*bsp=*/false);
    case ShardMode::kSyncTransport:
      return run_async(b, x, /*bsp=*/true);
  }
  throw std::logic_error("ShardedSolver: unknown mode");
}

ShardResult ShardedSolver::run_scripted(const Schedule& sched, const Vector& b,
                                        Vector& x) {
  const ScheduleCheck check = validate_schedule(sched, plan_.num_shards);
  if (!check.ok) {
    throw std::invalid_argument("ShardedSolver: schedule invalid: " +
                                check.error);
  }
  const std::size_t n = b.size();
  const CsrMatrix& a = setup_->a(0);
  Timer timer;

  ShardResult result;
  result.corrections.assign(plan_.num_shards, 0);

  History hx(check.max_staleness + 1, x);
  Vector x_read, r, ctmp;
  Vector staging(n, 0.0);
  CorrectionScratch ws;

  TelemetrySink* const tel =
      (opts_.telemetry != nullptr && opts_.telemetry->enabled())
          ? opts_.telemetry
          : nullptr;
  std::vector<bool> killed(plan_.num_shards, false);

  int t = 0;
  for (const std::vector<ScheduleEvent>& inst : sched.instants) {
    if (tel != nullptr) tel->record_at(0, t, EventKind::kInstant, t, 1);
    // Each scheduled shard's view of x is the snapshot of its read instant
    // with its own rows current (they live on the shard). From it the shard
    // computes the whole fine residual (local-res), forms the full additive
    // correction, and commits its owned rows. Ownership is disjoint and
    // foreign rows come from snapshots, so committing in event order is the
    // joint per-instant apply of the semi-async model; with fresh reads
    // (z = t) every view is x itself, which is what makes the S-shard
    // synchronous run bitwise-equal to the single-shard oracle.
    for (const ScheduleEvent& ev : inst) {
      const std::size_t s = ev.grid;
      if (killed[s] || (opts_.faults != nullptr &&
                        opts_.faults->kills_grid(s, result.corrections[s]))) {
        if (!killed[s]) {
          killed[s] = true;
          result.killed_shards.push_back(s);
        }
        continue;
      }
      const Range rg = plan_.owned[s];
      x_read = hx.at(ev.read_instant);
      std::copy(x.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                x.begin() + static_cast<std::ptrdiff_t>(rg.end),
                x_read.begin() + static_cast<std::ptrdiff_t>(rg.begin));
      a.residual(b, x_read, r);
      std::fill(staging.begin() + static_cast<std::ptrdiff_t>(rg.begin),
                staging.begin() + static_cast<std::ptrdiff_t>(rg.end), 0.0);
      corrector_.accumulate_cycle(r, staging, rg.begin, rg.end, ws, ctmp);
      for (std::size_t i = rg.begin; i < rg.end; ++i) x[i] += staging[i];
      ++result.corrections[s];
      if (tel != nullptr) {
        tel->record_at(0, t, EventKind::kShardStep,
                       static_cast<std::int64_t>(s), 1);
        tel->record_at(0, t, EventKind::kShardExchange,
                       static_cast<std::int64_t>(s), ev.read_instant);
      }
    }
    ++t;
    hx.push(t, x);
    if (opts_.record_history) {
      result.rel_res_history.push_back(rel_res(b, x));
    }
  }

  result.instants = t;
  result.seconds = timer.seconds();
  result.final_rel_res = rel_res(b, x);
  return result;
}

ShardResult ShardedSolver::run_async(const Vector& b, Vector& x, bool bsp) {
  const std::size_t S = plan_.num_shards;
  Timer timer;

  ChannelTransportOptions to;
  to.num_shards = S;
  to.capacity = opts_.channel_capacity;
  to.latency_us = bsp ? 0.0 : opts_.latency_us;
  to.seed = opts_.seed;
  if (opts_.telemetry != nullptr) {
    to.metrics = &opts_.telemetry->metrics();
  }
  ChannelTransport transport(to);

  std::vector<Vector> views(S, x);

  // Shared progress board: commits feed the staleness gate, dead marks a
  // shard that will never commit again (killed or finished) so peers must
  // not wait for it (Criterion-2 recovery). The slowest live shard never
  // waits, so neither the gate nor the BSP round waits can form a cycle.
  LocalPeerBoard board(S);
  std::vector<ShardWorkerResult> wr(S);

  auto shard_main = [&](std::size_t s) {
    ShardWorkerOptions wo;
    wo.shard = s;
    wo.t_max = opts_.t_max;
    wo.max_lag = opts_.max_lag;
    wo.bsp = bsp;
    wo.faults = opts_.faults;
    wo.telemetry = opts_.telemetry;
    wr[s] = run_shard_worker(plan_, corrector_, b, views[s], transport, board,
                             wo);
  };

  std::vector<std::thread> threads;
  threads.reserve(S);
  for (std::size_t s = 0; s < S; ++s) threads.emplace_back(shard_main, s);
  for (std::thread& th : threads) th.join();

  ShardResult result;
  result.corrections.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    const Range rg = plan_.owned[s];
    std::copy(views[s].begin() + static_cast<std::ptrdiff_t>(rg.begin),
              views[s].begin() + static_cast<std::ptrdiff_t>(rg.end),
              x.begin() + static_cast<std::ptrdiff_t>(rg.begin));
    result.corrections[s] = wr[s].corrections;
    result.reads_dropped += wr[s].reads_dropped;
    if (wr[s].killed) result.killed_shards.push_back(s);
  }
  result.packets_sent = transport.packets_sent();
  result.packets_dropped = transport.packets_dropped();
  result.seconds = timer.seconds();
  result.final_rel_res = rel_res(b, x);
  return result;
}

}  // namespace asyncmg
