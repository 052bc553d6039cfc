#pragma once
// Classical multiplicative V(1,1)-multigrid (Algorithm 1 of the paper),
// the "Mult" baseline of every experiment. Optionally post-smooths with
// M^T, which makes the cycle symmetric and mathematically equivalent to
// Multadd with the symmetrized smoother (Section II-B1).

#include <cstddef>

#include "multigrid/setup.hpp"
#include "multigrid/solve_stats.hpp"
#include "multigrid/workspace.hpp"
#include "telemetry/events.hpp"

namespace asyncmg {

class Counter;
class TelemetrySink;

class MultiplicativeMg {
 public:
  /// `symmetric` selects G^T (transposed-smoother) post-smoothing.
  /// `pre_sweeps`/`post_sweeps` generalize to V(s1,s2)-cycles (the paper
  /// uses V(1,1) throughout); `gamma` selects the cycle shape (1 = V-cycle,
  /// 2 = W-cycle, ...).
  explicit MultiplicativeMg(const MgSetup& setup, bool symmetric = false,
                            int pre_sweeps = 1, int post_sweeps = 1,
                            int gamma = 1);

  /// One V(1,1)-cycle: x is corrected in place using right-hand side b.
  void cycle(const Vector& b, Vector& x);

  /// Zero-guess entry, the PCG preconditioner z = M^{-1} r: one cycle on
  /// A z = r from z = 0 that starts level 0 from r itself, skipping
  /// cycle()'s r - A*0 pass over A_0. Equals `z.assign(n, 0.0); cycle(r, z)`
  /// entry for entry. `r` and `z` may be this cycle's own workspace().r(0)
  /// and workspace().e(0), which skips the copies in and out (pcg_solve
  /// keeps its residual and preconditioned residual there).
  void precondition(const Vector& r, Vector& z);

  /// Runs `t_max` cycles (or until ||r||/||b|| < tol when tol > 0),
  /// recording the residual history. `stop` is polled before every cycle.
  SolveStats solve(const Vector& b, Vector& x, int t_max, double tol = 0.0,
                   const StopPredicate& stop = {});

  /// Attach a telemetry sink: cycle phases (residual, smooths, transfers,
  /// coarse solve) are recorded as begin/end events on ring `tid`, and the
  /// kernel engine's bytes-moved / sweep counters are bound to the sink's
  /// metrics registry. nullptr detaches. Not owned; must outlive this
  /// object's cycle() calls.
  void set_telemetry(TelemetrySink* sink, std::size_t tid = 0);

  const MgSetup& setup() const { return *s_; }
  bool symmetric() const { return symmetric_; }

  /// The per-instance scratch arena (sizing diagnostics; pcg_solve borrows
  /// its level-0 slots between cycles).
  const CycleWorkspace& workspace() const { return ws_; }
  CycleWorkspace& workspace() { return ws_; }

 private:
  /// Recursive multigrid on the error equation A_k e_k = r_k; reads
  /// ws_.r(k), leaves the correction in ws_.e(k).
  void level_solve(std::size_t k);
  /// One post-smoothing-style sweep on A_k x = b through the fastest
  /// bit-identical kernel for the level: SELL fused sweep, CSR fused sweep,
  /// or the smoother's workspace sweep for non-diagonal types.
  void sweep_level(std::size_t k, const Vector& b, Vector& x);
  /// gamma coarse-grid corrections (restrict, recurse, prolong-add).
  void coarse_corrections(std::size_t k);

  // Out-of-line so mult.hpp doesn't drag in the sink; the inline wrappers
  // keep the detached case to one branch per phase.
  void phase_mark(EventKind kind, CyclePhase phase, std::size_t level);
  void pb(CyclePhase p, std::size_t lvl) {
    if (tel_ != nullptr) phase_mark(EventKind::kPhaseBegin, p, lvl);
  }
  void pe(CyclePhase p, std::size_t lvl) {
    if (tel_ != nullptr) phase_mark(EventKind::kPhaseEnd, p, lvl);
  }

  TelemetrySink* tel_ = nullptr;
  std::size_t tel_tid_ = 0;
  // Kernel-engine counters, bound once in set_telemetry so the cycle loop
  // never touches the registry map (handles are stable and lock-free).
  Counter* ctr_bytes_ = nullptr;
  Counter* ctr_sweeps_ = nullptr;
  const MgSetup* s_;
  // Resolved kernel backend, cached off the setup so the cycle's inner
  // loops pay one indirect call per kernel, not a setup hop too.
  const KernelBackend* be_;
  bool symmetric_;
  int pre_sweeps_;
  int post_sweeps_;
  int gamma_ = 1;
  // Per-level scratch arena reused across cycles (no allocations inside a
  // cycle).
  CycleWorkspace ws_;
};

}  // namespace asyncmg
