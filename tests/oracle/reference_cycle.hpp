#pragma once
// Test-only reference multiplicative cycle: the original two-pass path
// (separate spmv / subtract / transpose-restrict / prolong-then-axpy, and
// the allocating smoother calls), built only from the serial CsrMatrix
// kernels, Smoother::sweep / sweep_transpose / smooth_zero / apply_zero and
// the coarse LU. It shares no kernel code with MultiplicativeMg, which makes
// it the bitwise oracle of the production cycle (tests/test_kernels.cpp) and
// the baseline row of bench/solve_phase.

#include <vector>

#include "multigrid/setup.hpp"
#include "multigrid/solve_stats.hpp"

namespace asyncmg::oracle {

/// Cycle shape, with MultiplicativeMg's constructor semantics.
struct CycleShape {
  bool symmetric = false;
  int pre_sweeps = 1;
  int post_sweeps = 1;
  int gamma = 1;
};

/// The reference cycle's own per-level vectors. Sized on first use and
/// reused across cycles, so repeated cycles measure the kernels rather than
/// page faults.
struct ReferenceLevels {
  std::vector<Vector> r, e, tmp;
};

/// One cycle on A x = b, correcting x in place.
void reference_cycle(const MgSetup& setup, const Vector& b, Vector& x,
                     ReferenceLevels& levels, const CycleShape& shape = {});

/// MultiplicativeMg::solve through reference_cycle: the relative residual
/// history comes from CsrMatrix::residual + norm2.
SolveStats reference_solve(const MgSetup& setup, const Vector& b, Vector& x,
                           int t_max, double tol = 0.0,
                           const CycleShape& shape = {});

}  // namespace asyncmg::oracle
