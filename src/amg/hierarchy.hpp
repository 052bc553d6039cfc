#pragma once
// AMG setup phase: builds the grid hierarchy (A_k, P_{k+1}^k) from a fine
// matrix, mirroring the BoomerAMG options the paper uses (HMIS coarsening,
// aggressive coarsening on the finest level(s), classical modified
// interpolation, Galerkin coarse operators). There is one build path,
// HierarchyBuilder, and it produces a bit-identical hierarchy for every
// setup_threads value (DESIGN.md sections 7 and 13).

#include <cstdint>
#include <string>
#include <vector>

#include "amg/coarsen.hpp"
#include "amg/interp.hpp"
#include "amg/precision.hpp"
#include "amg/strength.hpp"
#include "sparse/csr.hpp"

namespace asyncmg {

struct AmgOptions {
  double strength_theta = 0.25;
  StrengthNorm strength_norm = StrengthNorm::kNegative;
  /// Unknown-based AMG for interleaved PDE systems (BoomerAMG's
  /// num_functions): strength ignores couplings between different
  /// components. Applied on the finest level only (coarse dofs lose the
  /// component structure under C-point renumbering).
  int num_functions = 1;
  /// C/F splitting (coarsen.hpp): row-parallel rounds, bit-identical for
  /// every setup_threads value.
  CoarsenAlgo coarsening = CoarsenAlgo::kHMIS;
  /// Tie-break weight source of the splitting rounds (kHash, the only one).
  CoarsenWeights coarsen_weights = CoarsenWeights::kHash;
  InterpAlgo interpolation = InterpAlgo::kClassicalModified;
  /// Aggressive (distance-2) coarsening is applied on this many of the
  /// finest levels, with multipass interpolation (as in BoomerAMG).
  int num_aggressive_levels = 0;
  /// Interpolation truncation threshold (relative to the row max).
  double trunc_factor = 0.2;
  Index max_levels = 25;
  /// Stop coarsening when a grid has at most this many rows.
  Index coarse_size = 64;
  /// Stop when coarsening stalls (nc/n above this ratio).
  double max_coarsen_ratio = 0.9;
  std::uint64_t seed = 42;
  /// Thread count for the setup-phase kernels (strength, interpolation,
  /// transpose, SpGEMM/RAP). 0 means the OpenMP default; the SolveService
  /// defaults it to its pool size so cache-miss setups use the pool's
  /// budget instead of oversubscribing. Every value yields a bit-identical
  /// hierarchy (see DESIGN.md on setup determinism).
  int setup_threads = 0;
  /// Per-level stored scalar width (DESIGN.md section 12). Setup always
  /// runs in fp64; the policy demotes coarse operators/interpolants at the
  /// end of build(), so fresh builds and spill-reloaded hierarchies see
  /// identical (rounded) values. Defaults to all-fp64 unless the
  /// ASYNCMG_PRECISION environment variable overrides it; assign
  /// `PrecisionPolicy{}` to pin the fp64 oracle regardless of environment.
  PrecisionPolicy precision = default_precision_policy();
};

/// One level of the hierarchy. `p` interpolates from level k+1 to level k
/// and is absent (empty) on the coarsest level.
struct AmgLevel {
  CsrMatrix a;
  CsrMatrix p;
  Splitting split;
};

class Hierarchy {
 public:
  /// Runs the full setup phase.
  static Hierarchy build(CsrMatrix a_fine, const AmgOptions& opts = {});

  /// Assembles a hierarchy from explicit levels (geometric builders,
  /// deserialization). Validates the chain: level k's interpolation must
  /// map level k+1's rows to level k's, and the coarsest level must have
  /// no interpolation.
  static Hierarchy from_levels(std::vector<AmgLevel> levels);

  std::size_t num_levels() const { return levels_.size(); }
  const AmgLevel& level(std::size_t k) const { return levels_[k]; }
  AmgLevel& level(std::size_t k) { return levels_[k]; }
  const CsrMatrix& matrix(std::size_t k) const { return levels_[k].a; }
  const CsrMatrix& interpolation(std::size_t k) const { return levels_[k].p; }

  /// Sum of nnz(A_k) over all levels divided by nnz(A_0).
  double operator_complexity() const;
  /// Sum of rows(A_k) over all levels divided by rows(A_0).
  double grid_complexity() const;

  /// Multi-line human-readable summary of the hierarchy.
  std::string summary() const;

 private:
  friend class HierarchyBuilder;
  std::vector<AmgLevel> levels_;
};

/// Level-by-level setup, the one way a hierarchy is built. Each step() runs
/// one coarsening iteration: strength + C/F splitting + interpolation +
/// Galerkin product, appending one coarse level. Hierarchy::build is
/// finish() on a fresh builder; harnesses that time or replay the build
/// level by level (perfbench's amg probe) drive step() themselves. Not
/// thread-safe.
class HierarchyBuilder {
 public:
  HierarchyBuilder(CsrMatrix a_fine, const AmgOptions& opts = {});

  /// Builds one more coarse level. Returns false when the hierarchy is
  /// complete (and from then on). Stored values stay fp64 until finish().
  bool step();

  /// Runs any remaining steps, applies the precision policy, and returns
  /// the finished hierarchy. The builder is consumed.
  Hierarchy finish();

 private:
  AmgOptions opts_;
  std::vector<AmgLevel> levels_;
  std::vector<int> funcs_;  // unknown-based AMG component map
  Index lvl_ = 0;
  bool done_ = false;
};

}  // namespace asyncmg
