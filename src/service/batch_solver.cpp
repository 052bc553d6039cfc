#include "service/batch_solver.hpp"

#include <algorithm>
#include <stdexcept>

#include "multigrid/pcg.hpp"
#include "service/solver_pool.hpp"

namespace asyncmg {

RequestSolver::RequestSolver(const MgSetup& setup)
    : mg_(setup, /*symmetric=*/setup.symmetric()) {}

SolveStats RequestSolver::solve(const Vector& b, Vector& x, int t_max,
                                double tol, const StopPredicate& stop) {
  if (mg_.symmetric()) {
    PcgOptions po;
    po.max_iterations = t_max;
    po.tol = tol;
    return pcg_solve(mg_, b, x, po, stop);
  }
  return mg_.solve(b, x, t_max, tol, stop);
}

BatchSolver::BatchSolver(std::shared_ptr<const MgSetup> setup,
                         SolverPool* pool, BatchOptions opts)
    : setup_(std::move(setup)), pool_(pool), opts_(opts) {
  if (!setup_) {
    throw std::invalid_argument("BatchSolver: null setup");
  }
}

std::vector<BatchResult> BatchSolver::solve_all(
    const std::vector<Vector>& rhs) const {
  const auto n_fine = static_cast<std::size_t>(setup_->a(0).rows());
  for (const Vector& b : rhs) {
    if (b.size() != n_fine) {
      throw std::invalid_argument("BatchSolver: rhs size mismatch");
    }
  }
  std::vector<BatchResult> results(rhs.size());
  if (rhs.empty()) return results;

  if (pool_ == nullptr) {
    RequestSolver solver(*setup_);
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      results[i].x.assign(n_fine, 0.0);
      results[i].stats =
          solver.solve(rhs[i], results[i].x, opts_.t_max, opts_.tol);
    }
    return results;
  }

  // One solver (cycle workspaces) per worker slot, reused across that
  // slot's share of the batch; right-hand sides are claimed dynamically.
  const std::size_t slots = std::min(rhs.size(), pool_->size());
  std::vector<std::unique_ptr<RequestSolver>> solvers(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    solvers[s] = std::make_unique<RequestSolver>(*setup_);
  }
  pool_->parallel_for(rhs.size(), [&](std::size_t slot, std::size_t i) {
    results[i].x.assign(n_fine, 0.0);
    results[i].stats =
        solvers[slot]->solve(rhs[i], results[i].x, opts_.t_max, opts_.tol);
  });
  return results;
}

}  // namespace asyncmg
