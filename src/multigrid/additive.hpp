#pragma once
// Additive multigrid methods: BPX (Eq. 1), Multadd (Eq. 2), and AFACx
// (Algorithm 2). The central primitive is the per-grid correction
//
//   c_k = Pbar_k^0 Lambda_k (Pbar_k^0)^T r     (Multadd; plain P for BPX)
//   c_k = P_k^0 e_k                            (AFACx, Alg. 2 lines 8-9)
//
// computed from a fine-grid residual. The synchronous additive cycle sums
// the corrections of all grids; the asynchronous models and the
// shared-memory runtime apply exactly the same per-grid correction with
// out-of-date residuals.

#include <string>
#include <vector>

#include "multigrid/setup.hpp"
#include "multigrid/solve_stats.hpp"

namespace asyncmg {

enum class AdditiveKind { kBpx, kMultadd, kAfacx };

std::string additive_kind_name(AdditiveKind k);

struct AdditiveOptions {
  AdditiveKind kind = AdditiveKind::kMultadd;
  /// AFACx V(s1/s2,0): sweeps for e_k (s1) and for e_{k+1} (s2).
  int afacx_s1 = 1;
  int afacx_s2 = 1;
  /// Use the symmetrized smoother Mbar^{-1} as Lambda_k; Multadd then
  /// matches the symmetric multiplicative V(1,1)-cycle exactly.
  bool symmetrized_lambda = false;
};

/// Reusable buffers for AdditiveCorrector::correction and
/// accumulate_cycle -- callers that sit in a per-instant loop (the
/// sequential simulators, the schedule replays, the shard loops) keep one
/// across calls instead of reallocating per correction. Contents are
/// scratch; only capacity is reused.
struct CorrectionScratch {
  Vector r, next, e, r_next, u, pu, apu;
  /// Ping-pong buffer for the allocation-free multi-sweep smoothing inside
  /// corrections (smooth_zero_ws / apply_symmetrized_ws spill space).
  Vector swp;
  /// accumulate_cycle's restriction chain: levels[j] is the fine residual
  /// restricted to level j (entry 0 unused, level 0 is the caller's r).
  std::vector<Vector> levels;
};

class AdditiveCorrector {
 public:
  AdditiveCorrector(const MgSetup& setup, AdditiveOptions opts);

  const MgSetup& setup() const { return *s_; }
  const AdditiveOptions& options() const { return opts_; }
  std::size_t num_grids() const { return s_->num_levels(); }

  /// Fine-grid correction contributed by grid k given fine residual r:
  /// c is resized and overwritten. The residual is restricted through the
  /// stored transposes (MgSetup::r / rbar) and the correction prolonged to
  /// all fine rows; the asynchronous models call this per grid, each grid
  /// on its own (possibly stale) residual.
  void correction(std::size_t k, const Vector& r_fine, Vector& c) const;
  /// Same computation (identical arithmetic, identical results), buffers
  /// drawn from `ws`.
  void correction(std::size_t k, const Vector& r_fine, Vector& c,
                  CorrectionScratch& ws) const;

  /// Additive cycle over a row range: adds every grid's correction
  /// computed from the fine residual `r` to rows [row_begin, row_end) of
  /// `acc` (other rows untouched), in grid order. The residual is
  /// restricted down the whole chain once and each grid reads its level of
  /// it; the levels >= 1 work is replicated by every caller, but each
  /// grid's last prolongation P_1^0 computes only rows [row_begin,
  /// row_end). Grid 0 with a Jacobi-type smoother is applied row-locally
  /// (c_0[i] = inv_diag[i] * r[i], the apply_zero formula). Per-row
  /// arithmetic equals correction(k) summed in grid order, for every range
  /// split: summing the ranges of any partition reproduces the full-range
  /// result bitwise.
  void accumulate_cycle(const Vector& r, Vector& acc, std::size_t row_begin,
                        std::size_t row_end, CorrectionScratch& ws,
                        Vector& c) const;

  /// Per-grid work estimate (flops of one correction) for thread balancing.
  std::vector<double> work() const;

 private:
  /// Interpolant to use between levels j and j+1 for this method.
  const CsrMatrix& interp(std::size_t j) const;
  /// Its stored transpose, the restriction from level j to j+1.
  const CsrMatrix& restriction(std::size_t j) const;
  /// Grid k's correction on level k into ws.e, from the level-k residual
  /// `rk`; AFACx below the coarsest grid also reads rk1 = R_k rk.
  void level_correction(std::size_t k, const Vector& rk, const Vector* rk1,
                        CorrectionScratch& ws) const;
  /// Prolongs ws.e from level k up to level 1 (no-op for k <= 1).
  void prolong_to_level1(std::size_t k, CorrectionScratch& ws) const;
  void solve_coarsest(const Vector& r, Vector& e) const;

  const MgSetup* s_;
  AdditiveOptions opts_;
};

/// Synchronous additive driver: one "V-cycle" computes r = b - Ax once and
/// adds every grid's correction (what the paper's sync Multadd / sync AFACx
/// baselines do, minus threading).
class AdditiveMg {
 public:
  AdditiveMg(const MgSetup& setup, AdditiveOptions opts);

  void cycle(const Vector& b, Vector& x);
  SolveStats solve(const Vector& b, Vector& x, int t_max, double tol = 0.0);

  const AdditiveCorrector& corrector() const { return corrector_; }

 private:
  AdditiveCorrector corrector_;
  CorrectionScratch ws_;
  Vector r_, c_;
};

}  // namespace asyncmg
