#pragma once
// Batched multi-RHS solves through one shared multigrid setup. All
// right-hand sides share the (cached) hierarchy; each worker slot keeps one
// RequestSolver whose per-level workspaces are reused across every
// right-hand side that slot processes, so N solves cost one setup plus N
// solves and at most pool-size workspace allocations.
//
// Every solve is deterministic, so a batched solve is bitwise identical to
// the same solves run independently, regardless of how the pool schedules
// them.

#include <memory>
#include <vector>

#include "multigrid/mult.hpp"
#include "multigrid/setup.hpp"
#include "multigrid/solve_stats.hpp"

namespace asyncmg {

class SolverPool;

/// How the service layer answers one request on a setup (SolveService and
/// BatchSolver share it): when the setup's A_0 is symmetric, PCG
/// preconditioned by one symmetric V(1,1) cycle (pcg_solve); otherwise
/// stationary V(1,1) cycles (MultiplicativeMg::solve). SolveStats::cycles
/// counts PCG iterations on the first path. Owns the cycle's workspaces,
/// reused across solves; one solve at a time.
class RequestSolver {
 public:
  explicit RequestSolver(const MgSetup& setup);

  /// Solves A x = b from the x given; `stop` is polled before every
  /// iteration or cycle.
  SolveStats solve(const Vector& b, Vector& x, int t_max, double tol,
                   const StopPredicate& stop = {});

 private:
  MultiplicativeMg mg_;
};

struct BatchOptions {
  int t_max = 100;
  double tol = 1e-8;
};

struct BatchResult {
  Vector x;
  SolveStats stats;
};

class BatchSolver {
 public:
  /// `pool` may be null: solves then run sequentially on the caller's
  /// thread (one reused workspace). The pool, when given, must outlive the
  /// BatchSolver and is not owned.
  BatchSolver(std::shared_ptr<const MgSetup> setup, SolverPool* pool,
              BatchOptions opts = {});

  /// Solves A x_i = rhs[i] from zero initial guesses. Thread-safe: per-call
  /// state only, so concurrent solve_all calls from multiple client threads
  /// interleave safely on the shared pool.
  std::vector<BatchResult> solve_all(const std::vector<Vector>& rhs) const;

  const MgSetup& setup() const { return *setup_; }
  const BatchOptions& options() const { return opts_; }

 private:
  std::shared_ptr<const MgSetup> setup_;
  SolverPool* pool_;
  BatchOptions opts_;
};

}  // namespace asyncmg
