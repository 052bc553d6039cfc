#pragma once
// Per-layer probes of the traced run. Each probe calls one layer's public
// functions on a workload's operator, records a span around every call, and
// returns the layer's metrics. Probes never touch the end-to-end numbers:
// the traced run that executes them is separate from the measured run.

#include <cstdint>
#include <string>
#include <vector>

#include "async/runtime.hpp"
#include "harness.hpp"
#include "multigrid/setup.hpp"

namespace perfbench {

/// Wall seconds of fn(), recorded as a span named `name`.
template <class Fn>
double timed(Tracer& tr, const std::string& name, Fn&& fn,
             std::uint64_t request = 0) {
  const auto t0 = Clock::now();
  {
    const Span s(tr, name, request);
    fn();
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// True relative residual ||b - A x|| / ||b|| (1 when b = 0 and x = 0).
double true_rel_res(const asyncmg::CsrMatrix& a, const asyncmg::Vector& b,
                    const asyncmg::Vector& x);

/// amg layer: HierarchyBuilder::step per level, then the same coarsening
/// replayed through the public phase functions (strength, C/F splitting,
/// interpolation + truncation, Galerkin RAP), `reps` times. Emits
/// amg.{strength,coarsen,interp,rap}_s (median over reps of the per-build
/// sum over levels), amg.levels, amg.operator_complexity, and
/// multigrid.derived_setup_s (MgSetup(Hierarchy, opts): smoothers, Pbar,
/// SELL forms, coarse LU). Throws if the replay's hierarchy differs from
/// the HierarchyBuilder's.
Metrics probe_amg(const asyncmg::CsrMatrix& a, const asyncmg::MgOptions& mo,
                  int reps, Tracer& tr);

/// backend/sparse layer: replays each level's V-cycle kernels through the
/// setup's resolved KernelBackend (sweep, residual, restriction incl. the
/// fused r - A e pass, prolongation) and the coarsest LU solve. Emits
/// backend.L{k}.{sweep,residual,restrict,prolong}_s (median seconds per
/// call), backend.L{k}.gbps (bytes computed from array sizes over the four
/// kernels' time), backend.L{k}.ceiling_frac, backend.coarse_solve_s and
/// backend.gbps_ceiling, for k < level_slots (0 for slots past the last
/// smoothed level).
Metrics probe_backend(const asyncmg::MgSetup& setup, double ceiling_gbps,
                      std::size_t level_slots, double budget_s, Tracer& tr);

/// multigrid layer: seconds per MultiplicativeMg::cycle (median of `reps`)
/// and the bytes one cycle moves by the kernel engine's traffic model
/// (computed, not measured). Emits multigrid.cycle_s and
/// multigrid.bytes_per_cycle.
Metrics probe_cycle(const asyncmg::MgSetup& setup, const asyncmg::Vector& b,
                    int reps, Tracer& tr);

/// V(1,1) cycles MultiplicativeMg::solve needs to reach `tol` (exact).
int cycles_to_tol(const asyncmg::MgSetup& setup, const asyncmg::Vector& b,
                  double tol, Tracer& tr);

/// async baseline: run_mult_threaded (the paper's sync Mult) with the
/// smallest t_max that reaches `tol`, median seconds of `reps` solves.
double probe_mult_threaded(const asyncmg::MgSetup& setup,
                           const asyncmg::Vector& b, double tol,
                           std::size_t threads, int reps, Tracer& tr);

/// Per-solve correction accounting of run_shared_memory results.
struct CorrectionStats {
  double mean_sum = 0.0;     // sum over solves of mean corrections per grid
  double spread_sum = 0.0;   // sum over solves of max/min per grid
  double corrections = 0.0;  // total corrections over all grids and solves
  double seconds = 0.0;      // total solve seconds
  std::size_t solves = 0;
  void add(const asyncmg::RuntimeResult& r);
  /// async.corrections_{mean,spread,per_s}.
  Metrics metrics() const;
};

/// The paper's method as run by the async_multadd workload: free-running
/// Multadd, lock-write, local-res, Criterion 2.
asyncmg::RuntimeOptions paper_async_options(int t_max, std::size_t threads);

/// shard layer: ShardedSolver in kSyncTransport mode (threads + channel
/// transport, no wire) with `shards` shards and `t_max` rounds; median
/// seconds of `reps` solves.
double probe_inproc_bsp(const asyncmg::MgSetup& setup,
                        const asyncmg::Vector& b, int t_max,
                        std::size_t shards, int reps, Tracer& tr);

}  // namespace perfbench
