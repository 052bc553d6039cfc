#include "multigrid/setup.hpp"

namespace asyncmg {

MgSetup::MgSetup(CsrMatrix a_fine, MgOptions opts)
    : opts_(opts), h_(Hierarchy::build(std::move(a_fine), opts.amg)) {
  init();
}

MgSetup::MgSetup(Hierarchy hierarchy, MgOptions opts)
    : opts_(opts), h_(std::move(hierarchy)) {
  init();
}

void MgSetup::init() {
  const std::size_t nl = h_.num_levels();

  // Resolve the kernel backend before anything that runs kernels is built,
  // so the smoothers (and every solver later attached to this setup) agree
  // on one implementation for the whole solve.
  backend_ = &resolve_backend(opts_.engine);

  // Scale-relative, so the flag does not depend on how the caller scaled
  // the system.
  const CsrMatrix& a0 = h_.matrix(0);
  symmetric_ = a0.is_symmetric(1e-12 * a0.max_abs());

  smoothers_.reserve(nl);
  for (std::size_t k = 0; k < nl; ++k) {
    smoothers_.push_back(
        std::make_unique<Smoother>(h_.matrix(k), opts_.smoother));
    smoothers_.back()->set_backend(backend_);
  }

  // Per-level format selection for the solve-phase kernel engine: SELL
  // levels carry a second (immutable) copy of A_k that the fused diagonal
  // sweeps and residuals stream instead of the CSR form.
  const bool diag_smoother =
      opts_.smoother.type == SmootherType::kWeightedJacobi ||
      opts_.smoother.type == SmootherType::kL1Jacobi;
  sell_.resize(nl);
  for (std::size_t k = 0; k < nl; ++k) {
    if (level_prefers_sell(opts_.engine, h_.matrix(k).rows(), diag_smoother,
                           k + 1 == nl)) {
      sell_[k] = std::make_unique<SellMatrix>(
          SellMatrix::from_csr(h_.matrix(k), kSellChunk, kSellSigma));
    }
  }

  // Smoothed interpolants for Multadd, one per non-coarsest level, built
  // from the Jacobi-type iteration matrix of the configured smoother. The
  // SpGEMM chain always produces fp64; each Pbar is then demoted to match
  // its plain interpolant's stored width (set by the precision policy at
  // hierarchy build), so the additive transfer operators stream the same
  // number of bytes as the multiplicative ones.
  pbar_.reserve(nl > 0 ? nl - 1 : 0);
  for (std::size_t k = 0; k + 1 < nl; ++k) {
    pbar_.push_back(smoothed_interpolant(
        h_.matrix(k), h_.interpolation(k), opts_.smoother.type,
        opts_.smoother.omega, opts_.amg.setup_threads));
    pbar_.back().convert_precision(h_.interpolation(k).precision());
  }

  rt_.reserve(pbar_.size());
  rbart_.reserve(pbar_.size());
  for (std::size_t k = 0; k + 1 < nl; ++k) {
    rt_.push_back(h_.interpolation(k).transpose(opts_.amg.setup_threads));
    rbart_.push_back(pbar_[k].transpose(opts_.amg.setup_threads));
  }

  const CsrMatrix& ac = h_.matrix(nl - 1);
  if (ac.rows() <= opts_.max_dense_coarse) {
    coarse_ = LuSolver(ac);
  }

  // Work model: one grid-k additive correction walks the interpolation
  // chain down and back up (2 nnz flops per SpMV) and smooths once on A_k.
  work_.assign(nl, 0.0);
  for (std::size_t k = 0; k < nl; ++k) {
    double w = 2.0 * static_cast<double>(h_.matrix(k).nnz());  // smoothing
    for (std::size_t j = 0; j < k; ++j) {
      // Restriction (Pbar^T) and prolongation (Pbar) through level j.
      const CsrMatrix& pj = pbar_.empty() ? h_.interpolation(j) : pbar_[j];
      w += 4.0 * static_cast<double>(pj.nnz());
    }
    work_[k] = w;
  }
}

}  // namespace asyncmg
