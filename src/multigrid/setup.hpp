#pragma once
// Multigrid setup object: owns the AMG hierarchy, one smoother per level,
// the explicitly assembled smoothed interpolants Pbar_{k+1}^k = G_k P_{k+1}^k
// used by Multadd (Section II-B1), the coarsest-level LU factorization, and
// per-grid work estimates for thread assignment (Section IV).
//
// Every solver in the library (multiplicative, additive, the asynchronous
// models and the shared-memory runtime) runs against one immovable MgSetup.

#include <memory>
#include <vector>

#include "amg/hierarchy.hpp"
#include "backend/backend.hpp"
#include "smoothers/smoother.hpp"
#include "sparse/dense.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sellcs.hpp"

namespace asyncmg {

struct MgOptions {
  AmgOptions amg;
  SmootherOptions smoother;
  /// Largest size for which the coarsest level is solved exactly by dense
  /// LU. (The hierarchy's coarse_size option keeps grids below this.)
  Index max_dense_coarse = 2000;
  /// Solve-phase kernel engine configuration (format selection, fusion,
  /// workspace first-touch).
  KernelEngineOptions engine;
};

class MgSetup {
 public:
  MgSetup(CsrMatrix a_fine, MgOptions opts);

  /// Wraps a prebuilt hierarchy (e.g. from the geometric builder in
  /// src/gmg or a deserialized one); opts.amg is ignored.
  MgSetup(Hierarchy hierarchy, MgOptions opts);

  MgSetup(const MgSetup&) = delete;
  MgSetup& operator=(const MgSetup&) = delete;

  const MgOptions& options() const { return opts_; }
  const Hierarchy& hierarchy() const { return h_; }

  /// Number of grids (levels), l + 1 in the paper's numbering.
  std::size_t num_levels() const { return h_.num_levels(); }

  const CsrMatrix& a(std::size_t k) const { return h_.matrix(k); }
  /// Plain interpolation P_{k+1}^k (defined for k < num_levels()-1).
  const CsrMatrix& p(std::size_t k) const { return h_.interpolation(k); }
  /// Smoothed interpolant Pbar_{k+1}^k (defined for k < num_levels()-1).
  const CsrMatrix& pbar(std::size_t k) const { return pbar_[k]; }
  /// Explicit restriction (P_{k+1}^k)^T, stored so the thread teams can
  /// restrict with a row-parallel SpMV.
  const CsrMatrix& r(std::size_t k) const { return rt_[k]; }
  /// Explicit (Pbar_{k+1}^k)^T.
  const CsrMatrix& rbar(std::size_t k) const { return rbart_[k]; }

  const Smoother& smoother(std::size_t k) const { return *smoothers_[k]; }
  const LuSolver& coarse_solver() const { return coarse_; }

  /// SELL-C-sigma form of A_k when the engine heuristic selected it for the
  /// level (level_prefers_sell); nullptr means the level runs CSR. Built
  /// once here — immutable and shared by every solver on this setup — so
  /// SolverPool lanes and per-request solvers never pay the conversion.
  const SellMatrix* sell(std::size_t k) const { return sell_[k].get(); }

  /// Kernel backend every solver on this setup runs against, resolved once
  /// at setup from opts.engine.backend / ASYNCMG_BACKEND / CPUID (DESIGN.md
  /// section 15). Never null; falls back to the scalar oracle.
  const KernelBackend& backend() const { return *backend_; }
  /// The resolved kind (what backend() actually is, after any fallback).
  BackendKind backend_kind() const { return backend_->kind(); }

  /// True when A_0 is symmetric to within 1e-12 of its largest entry
  /// (CsrMatrix::is_symmetric, one allocation-free pass here at setup).
  /// SolveService and BatchSolver answer symmetric setups with PCG around
  /// the symmetric V-cycle, the rest with stationary V-cycles (DESIGN.md
  /// section 6).
  bool symmetric() const { return symmetric_; }

  /// Approximate flops of one grid-k correction for the additive methods
  /// (restriction chain + smoothing + prolongation chain); used to balance
  /// threads across grids.
  const std::vector<double>& grid_work() const { return work_; }

 private:
  void init();

  MgOptions opts_;
  Hierarchy h_;
  const KernelBackend* backend_ = &scalar_backend();
  bool symmetric_ = false;
  std::vector<std::unique_ptr<Smoother>> smoothers_;
  std::vector<std::unique_ptr<SellMatrix>> sell_;  // nullptr = CSR level
  std::vector<CsrMatrix> pbar_;
  std::vector<CsrMatrix> rt_;     // P^T per level
  std::vector<CsrMatrix> rbart_;  // Pbar^T per level
  LuSolver coarse_;
  std::vector<double> work_;
};

}  // namespace asyncmg
