#pragma once
// Per-hierarchy cycle workspace arena (DESIGN.md section 10).
//
// Every scratch vector a multigrid cycle touches lives here, sized once at
// construction, so the cycling hot path performs zero heap allocations (the
// counting-allocator test in tests/test_kernels.cpp asserts this). Ownership
// rule: one CycleWorkspace per solver instance, never shared across threads
// — a SolverPool lane gets its own because BatchSolver builds one
// MultiplicativeMg per worker slot.

#include <cstddef>
#include <vector>

#include "sparse/types.hpp"

namespace asyncmg {

class MgSetup;

class CycleWorkspace {
 public:
  /// Sizes one r/e/tmp/swp quartet per hierarchy level. The buffers are
  /// then re-written by a parallel OpenMP loop; on first-touch NUMA policies
  /// this distributes pages across the team that will run the parallel
  /// kernels. (An approximation: std::vector's value-initialization already
  /// touched the pages once, serially, so this only helps when the OS
  /// migrates on re-touch or the vectors were reserve()-grown; the
  /// zero-allocation and fusion wins do not depend on it.) Pool workers skip
  /// the parallel re-touch, like every solve kernel.
  explicit CycleWorkspace(const MgSetup& setup);

  std::size_t num_levels() const { return r_.size(); }

  Vector& r(std::size_t k) { return r_[k]; }
  Vector& e(std::size_t k) { return e_[k]; }
  Vector& tmp(std::size_t k) { return tmp_[k]; }
  /// Ping-pong output buffer for out-of-place fused Jacobi sweeps; swapped
  /// with the iterate after each sweep, so it must stay level-sized.
  Vector& swp(std::size_t k) { return swp_[k]; }

  /// Total bytes held (telemetry / sizing diagnostics).
  std::size_t bytes() const;

 private:
  std::vector<Vector> r_, e_, tmp_, swp_;
};

}  // namespace asyncmg
