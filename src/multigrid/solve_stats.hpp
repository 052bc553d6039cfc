#pragma once
// Result bundle returned by every solver driver, and the stop hook the
// iterative drivers poll.

#include <functional>
#include <vector>

#include "sparse/types.hpp"

namespace asyncmg {

/// Polled once before every cycle / iteration; returning true ends the solve
/// early with the current iterate (SolveStats::stopped). SolveService passes
/// its request deadline here. An empty predicate never stops.
using StopPredicate = std::function<bool()>;

struct SolveStats {
  /// Relative residual 2-norms ||b - Ax||/||b||; entry 0 is the initial
  /// residual, entry t is after cycle t.
  std::vector<double> rel_res_history;
  /// Cycles actually carried out.
  int cycles = 0;
  /// True when the final relative residual fell below the requested
  /// tolerance (always false when tol <= 0: no tolerance checking).
  bool converged = false;
  /// True when the caller's StopPredicate ended the solve.
  bool stopped = false;
  /// Wall-clock seconds of the solve loop (excludes setup).
  double seconds = 0.0;

  double final_rel_res() const {
    return rel_res_history.empty() ? 1.0 : rel_res_history.back();
  }
};

}  // namespace asyncmg
