#pragma once
// Coarse/fine splitting algorithms: a Ruge-Stuben first pass, PMIS, and
// HMIS (RS first pass feeding PMIS), plus a distance-2 "aggressive" second
// stage. These mirror the BoomerAMG options the paper selects ("HMIS
// coarsening with one/two aggressive levels").
//
// Every algorithm runs as Luby-style rounds over the strength graph
// (DESIGN.md section 13): per-round frontier sets, hash-based deterministic
// tie-break weights, and owner-computes writes only. The C/F splitting is
// bit-identical for every thread count. The test-only oracle library
// (tests/oracle) holds a naive serial implementation of the same rounds
// that the tests and bench/setup_scaling compare against bitwise.

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace asyncmg {

enum class PointType : std::int8_t { kFine = 0, kCoarse = 1 };
using Splitting = std::vector<PointType>;

enum class CoarsenAlgo { kRS, kPMIS, kHMIS };

/// Source of the random tie-break weights of the independent-set rounds.
/// kHash derives weight[i] from splitmix64(seed, i), computable row-parallel
/// with no serial dependency; it is the only source.
enum class CoarsenWeights { kHash };

/// Configuration of one C/F splitting run.
struct CoarsenParams {
  CoarsenAlgo algo = CoarsenAlgo::kHMIS;
  CoarsenWeights weights = CoarsenWeights::kHash;
  std::uint64_t seed = 42;
  /// Setup-kernel thread count; 0 = OpenMP default. Every value yields a
  /// bit-identical splitting.
  int num_threads = 0;
};

/// Per-row random tie-break weights in [0, 1), computed row-parallel.
std::vector<double> coarsen_tie_weights(Index n, std::uint64_t seed,
                                        int num_threads = 0);

/// Per-level salt Hierarchy::build applies to AmgOptions::seed before each
/// splitting, so every level draws an independent deterministic weight
/// stream. Public so harnesses mirroring the build loop phase by phase
/// (bench/setup_scaling, perfbench) reproduce the exact same splittings.
std::uint64_t coarsen_level_seed(std::uint64_t seed, Index level);

/// C/F splitting: kPMIS runs weighted PMIS rounds; kRS the round-based
/// first pass (per round, every undecided point that is a strict
/// (measure, index) local maximum over its undecided symmetrized strong
/// neighborhood becomes C, points strongly depending on a new C point
/// become F, and integer measures are updated in gather form); kHMIS the
/// round-based first pass feeding PMIS. Every non-isolated F point
/// strongly depends on a C point. Bit-identical across thread counts.
Splitting coarsen_parallel(const CsrMatrix& s, const CoarsenParams& p);

/// Aggressive (distance-2) second stage: deterministic two-pass parallel
/// subgraph extraction over the first-stage C points, then
/// coarsen_parallel on the subgraph with a salted seed. Returns the
/// combined splitting, whose C set is a subset of first's.
Splitting coarsen_aggressive_parallel(const CsrMatrix& s,
                                      const Splitting& first,
                                      const CoarsenParams& p);

/// Number of coarse points.
Index count_coarse(const Splitting& split);

/// Coarse-point numbering: result[i] = index of i among C points, or -1.
std::vector<Index> coarse_numbering(const Splitting& split);

}  // namespace asyncmg
