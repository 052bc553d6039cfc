#pragma once
// Preconditioned conjugate gradients. The paper notes (Section II-B) that
// BPX is normally used as a preconditioner rather than a solver because
// its additive corrections over-correct; PCG is the natural harness for
// that use. Any SPD preconditioner works; `MultigridPreconditioner` wraps
// the library's cycles:
//
//   * BPX or Multadd with the symmetrized smoother (SPD by construction);
//   * a symmetric multiplicative V(1,1)-cycle.
//
// The service layer (RequestSolver) solves symmetric requests with the
// setup-backed overload at the bottom: PCG around one symmetric V(1,1).

#include <functional>

#include "multigrid/additive.hpp"
#include "multigrid/mult.hpp"
#include "multigrid/solve_stats.hpp"

namespace asyncmg {

/// z = M^{-1} r. Implementations must be (numerically) SPD for CG theory
/// to apply.
using Preconditioner = std::function<void(const Vector& r, Vector& z)>;

struct PcgOptions {
  int max_iterations = 500;
  double tol = 1e-9;  // on ||r||_2 / ||b||_2
};

/// Reusable buffers for the CSR pcg_solve: callers issuing many solves
/// (benches) keep one across calls so the iteration allocates nothing after
/// the first solve. Contents are scratch; only capacity is reused.
struct PcgWorkspace {
  Vector r, z, p, ap;
};

/// Solves A x = b with (preconditioned) CG. Pass a null Preconditioner for
/// plain CG. Returns the residual history (entry i is after iteration i).
/// A is applied by the CSR kernels (the same code in every backend).
///
/// Every pcg_solve overload runs one iteration body, with these rules:
///   * convergence is declared only on a recomputed true residual b - A x:
///     when the recurrence residual crosses tol the true one is recomputed,
///     and CG restarts from the current iterate if it misses;
///   * a breakdown (p^T A p <= 0, r^T z <= 0, or a non-finite step) restarts
///     once from the true residual; a second breakdown in a row stops with
///     converged = false and the last finite iterate;
///   * every exit records the true residual as the last history entry.
SolveStats pcg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& precond, const PcgOptions& opts);

/// Same iteration (identical arithmetic, identical results), temporaries
/// drawn from `ws`.
SolveStats pcg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& precond, const PcgOptions& opts,
                     PcgWorkspace& ws);

/// PCG on the fine operator of `mg`'s setup, preconditioned by one
/// zero-guess cycle of `mg` (MultiplicativeMg::precondition; CG theory
/// needs mg.symmetric()). A_0 runs through the setup's kernel backend, on
/// its SELL form when the level has one, so the SIMD kernels cover the
/// outer loop too. The residual, the preconditioned residual and A p live
/// in mg's level-0 workspace slots (r, e, tmp), so a solve adds one fine
/// vector to the cycle's arena. `stop` is polled before every iteration.
/// Not thread-safe: concurrent solves need their own `mg`.
SolveStats pcg_solve(MultiplicativeMg& mg, const Vector& b, Vector& x,
                     const PcgOptions& opts, const StopPredicate& stop = {});

enum class MgPreconditionerKind {
  kBpx,                  // Eq. 1, one additive application
  kMultaddSymmetrized,   // Eq. 2 with Mbar^{-1}: equals symmetric V(1,1)
  kSymmetricVCycle,      // Algorithm 1 with transposed post-smoothing
};

/// Builds a multigrid preconditioner application around a setup. The
/// returned callable owns the per-application workspaces (shared across
/// calls: not thread-safe).
Preconditioner make_mg_preconditioner(const MgSetup& setup,
                                      MgPreconditionerKind kind);

}  // namespace asyncmg
