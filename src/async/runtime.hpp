#pragma once
// Shared-memory asynchronous additive multigrid (Section IV, Algorithms
// 3-5), plus the synchronous additive and multiplicative baselines executed
// on the same thread pool so that timings are comparable.
//
// Threads are partitioned into per-grid teams balanced by the per-grid work
// estimate; a team synchronizes internally with a std::barrier but -- in
// asynchronous mode -- never with other teams. The shared solution x (and,
// for global-res / residual-based runs, the shared residual r) is accessed
// under one of two write policies:
//
//   lock-write    one global mutex; a team's master acquires it, the team
//                 updates with a parallel loop, the master releases. Reads
//                 of shared vectors also take the lock, so local-res +
//                 lock-write realizes the semi-async model (Eq. 6) exactly.
//   atomic-write  std::atomic_ref<double>::fetch_add per element; reads are
//                 relaxed atomic loads (full-async, Eq. 7/10).
//
// The fine-grid residual is produced per the rescomp flag:
//
//   local-res     each team copies x and recomputes r^k = b - A x^k itself
//                 (more flops per team, fresher residuals).
//   global-res    r is a shared vector; after a correction, every thread
//                 refreshes its own static chunk of r from the shared x
//                 with a non-blocking loop, and the team then reads r.
//
// residual_based (the paper's r- prefix) replaces the recomputation with an
// incremental shared-residual update r <- r - A e.

#include <cstdint>
#include <string>
#include <vector>

#include "async/schedule.hpp"
#include "multigrid/additive.hpp"
#include "multigrid/setup.hpp"

namespace asyncmg {

class TelemetrySink;

enum class ResComp { kGlobal, kLocal };
enum class WritePolicy { kLockWrite, kAtomicWrite };
/// Criterion 1: a grid stops as soon as it has done t_max corrections.
/// Criterion 2: a master thread stops everyone once *all* grids reached
/// t_max (grids keep correcting meanwhile).
enum class StopCriterion { kIndependent, kMaster };
/// kScripted replays a deterministic interleaving (a Schedule) on the same
/// thread teams: semi-async (Eq. 6) semantics with snapshot reads and joint
/// per-instant applies, reproducible across runs and -- for Jacobi-type
/// smoothers -- across thread counts. See async/schedule.hpp.
enum class ExecMode { kAsynchronous, kSynchronous, kScripted };

struct RuntimeOptions {
  ExecMode mode = ExecMode::kAsynchronous;
  ResComp rescomp = ResComp::kLocal;
  WritePolicy write = WritePolicy::kLockWrite;
  StopCriterion criterion = StopCriterion::kIndependent;
  bool residual_based = false;  // r-Multadd
  int t_max = 20;
  std::size_t num_threads = 4;
  /// Record a per-correction commit trace (grid id + seconds since the
  /// solve started; in scripted mode `seconds` is the time *instant* of the
  /// commit instead, making traces reproducible). Costs one clock read per
  /// correction in the free-running modes.
  bool record_trace = false;
  /// Telemetry event sink (see telemetry/sink.hpp): relaxations, shared
  /// reads, and fault injections are recorded per thread. nullptr (the
  /// default) disables instrumentation entirely; a disabled sink costs one
  /// branch per site. Scripted replays record logical-time events from
  /// global thread 0 only, so their drained streams are deterministic.
  /// Not owned; must outlive the call.
  TelemetrySink* telemetry = nullptr;

  // --- Deterministic harness (see async/schedule.hpp) -------------------
  /// kScripted only: the exact interleaving to replay. Not owned; must
  /// outlive the call. When null, a schedule is sampled internally with
  /// sample_schedule using (script_alpha, script_max_delay, seed) and
  /// updates_per_grid = t_max -- the Section-III sampling, so the run walks
  /// the same trajectory as run_async_model(kSemiAsync) for the same seed.
  const Schedule* schedule = nullptr;
  double script_alpha = 1.0;
  int script_max_delay = 0;
  /// Explicit seed for every stochastic choice the runtime makes (today:
  /// internal schedule sampling). Free-running runs have no RNG -- their
  /// nondeterminism is the OS schedule, which the harness exists to remove.
  std::uint64_t seed = 1;
  /// Fault injection for the free-running asynchronous driver (kills also
  /// apply to scripted replays). Not owned; must outlive the call.
  const FaultPlan* faults = nullptr;
  /// Run the invariant checkers: sum-of-corrections conservation (all
  /// modes) and the per-instant divergence sentinel (scripted mode).
  /// Results land in RuntimeResult::invariants.
  bool check_invariants = false;
  /// Scripted + check_invariants: halt and flag divergence once the
  /// relative residual exceeds this.
  double divergence_threshold = 1e6;
};

/// One committed correction in the execution trace.
struct TraceEvent {
  std::size_t grid = 0;
  double seconds = 0.0;  // since the solve loop started (instant if scripted)
};

std::string runtime_config_name(const RuntimeOptions& o);

struct RuntimeResult {
  double seconds = 0.0;
  /// True ||b - A x|| / ||b|| measured after all threads joined.
  double final_rel_res = 1.0;
  /// Corrections carried out by each grid.
  std::vector<int> corrections;
  /// Commit trace (only when RuntimeOptions::record_trace), in commit
  /// order per grid; interleave across grids by sorting on seconds. In
  /// scripted mode the trace is in global commit order already.
  std::vector<TraceEvent> trace;
  /// Time instants executed (scripted mode; 0 otherwise).
  int instants = 0;
  /// Invariant-checker verdicts and fault-injection counters.
  InvariantReport invariants;
  /// The paper's "Corrects": total corrections divided by number of grids.
  double mean_corrections() const;
};

/// Runs the asynchronous (or synchronous additive) solver. x is updated in
/// place. Thread-to-grid assignment is balanced by corrector.work(); when
/// fewer threads than grids are given, single-thread teams own several
/// consecutive grids.
RuntimeResult run_shared_memory(const AdditiveCorrector& corrector,
                                const Vector& b, Vector& x,
                                const RuntimeOptions& opts);

/// Threaded classical multiplicative V(1,1) baseline ("Mult"): every
/// operation uses all threads with a global barrier between phases, as an
/// OpenMP static-schedule implementation would.
RuntimeResult run_mult_threaded(const MgSetup& setup, const Vector& b,
                                Vector& x, int t_max, std::size_t num_threads);

}  // namespace asyncmg
