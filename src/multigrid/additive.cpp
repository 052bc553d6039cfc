#include "multigrid/additive.hpp"

#include <stdexcept>

#include "sparse/vec.hpp"
#include "util/timer.hpp"

namespace asyncmg {

std::string additive_kind_name(AdditiveKind k) {
  switch (k) {
    case AdditiveKind::kBpx:
      return "bpx";
    case AdditiveKind::kMultadd:
      return "multadd";
    case AdditiveKind::kAfacx:
      return "afacx";
  }
  return "unknown";
}

AdditiveCorrector::AdditiveCorrector(const MgSetup& setup,
                                     AdditiveOptions opts)
    : s_(&setup), opts_(opts) {
  if (opts_.afacx_s1 < 1 || opts_.afacx_s2 < 1) {
    throw std::invalid_argument("AFACx sweep counts must be >= 1");
  }
}

const CsrMatrix& AdditiveCorrector::interp(std::size_t j) const {
  return opts_.kind == AdditiveKind::kMultadd ? s_->pbar(j) : s_->p(j);
}

void AdditiveCorrector::solve_coarsest(const Vector& r, Vector& e) const {
  const std::size_t coarsest = s_->num_levels() - 1;
  if (!s_->coarse_solver().empty()) {
    s_->coarse_solver().solve(r, e);
  } else {
    s_->smoother(coarsest).apply_zero(r, e);
  }
}

void AdditiveCorrector::correction(std::size_t k, const Vector& r_fine,
                                   Vector& c) const {
  CorrectionScratch ws;
  correction(k, r_fine, c, ws);
}

void AdditiveCorrector::correction(std::size_t k, const Vector& r_fine,
                                   Vector& c, CorrectionScratch& ws) const {
  if (opts_.kind == AdditiveKind::kAfacx) {
    correction_afacx(k, r_fine, c, ws);
  } else {
    correction_chain(k, r_fine, c, ws);
  }
}

void AdditiveCorrector::correction_chain(std::size_t k, const Vector& r_fine,
                                         Vector& c,
                                         CorrectionScratch& ws) const {
  const std::size_t coarsest = s_->num_levels() - 1;
  // Restrict the fine residual down to level k through the method's
  // interpolant chain.
  Vector& r = ws.r;
  Vector& next = ws.next;
  r = r_fine;
  const KernelBackend& be = s_->backend();
  for (std::size_t j = 0; j < k; ++j) {
    be.csr_spmv_transpose(interp(j), r, next);
    r.swap(next);
  }
  // Lambda_k.
  Vector& e = ws.e;
  if (k == coarsest) {
    solve_coarsest(r, e);
  } else if (opts_.symmetrized_lambda) {
    // The chain kinds never touch the AFACx buffers, so they double as the
    // symmetrized application's temporaries (identical results, no
    // allocation once warm).
    s_->smoother(k).apply_symmetrized_ws(r, e, ws.u, ws.pu, ws.apu);
  } else {
    s_->smoother(k).apply_zero(r, e);
  }
  // Prolong back to the fine grid.
  for (std::size_t j = k; j-- > 0;) {
    be.csr_spmv(interp(j), e, next, /*parallel=*/false);
    e.swap(next);
  }
  c.swap(e);  // result moves to c; c's old buffer becomes scratch
}

void AdditiveCorrector::correction_afacx(std::size_t k, const Vector& r_fine,
                                         Vector& c,
                                         CorrectionScratch& ws) const {
  const std::size_t coarsest = s_->num_levels() - 1;
  // Restrict through the plain interpolant chain to level k.
  Vector& r = ws.r;
  Vector& next = ws.next;
  r = r_fine;
  const KernelBackend& be = s_->backend();
  for (std::size_t j = 0; j < k; ++j) {
    be.csr_spmv_transpose(s_->p(j), r, next);
    r.swap(next);
  }

  Vector& e = ws.e;
  if (k == coarsest) {
    // Coarsest grid contributes its (exact) solve directly.
    solve_coarsest(r, e);
  } else {
    // r_{k+1} = P^T r_k, then smooth e_{k+1} from zero (s2 sweeps).
    Vector& r_next = ws.r_next;
    be.csr_spmv_transpose(s_->p(k), r, r_next);
    Vector& u = ws.u;
    if (k + 1 == coarsest && !s_->coarse_solver().empty()) {
      s_->coarse_solver().solve(r_next, u);
    } else {
      s_->smoother(k + 1).smooth_zero_ws(r_next, u, opts_.afacx_s2, ws.swp);
    }
    // Modified right-hand side r_k - A_k P u (Alg. 2 lines 8-9), then
    // smooth e_k from zero (s1 sweeps); the grid-k correction is just
    // P_k^0 e_k, no subtraction needed.
    Vector& pu = ws.pu;
    be.csr_spmv(s_->p(k), u, pu, /*parallel=*/false);
    Vector& apu = ws.apu;
    be.csr_spmv(s_->a(k), pu, apu, /*parallel=*/false);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] -= apu[i];
    s_->smoother(k).smooth_zero_ws(r, e, opts_.afacx_s1, ws.swp);
  }

  for (std::size_t j = k; j-- > 0;) {
    be.csr_spmv(s_->p(j), e, next, /*parallel=*/false);
    e.swap(next);
  }
  c.swap(e);  // see correction_chain
}

void AdditiveCorrector::accumulate_cycle(const Vector& r, Vector& acc,
                                         std::size_t row_begin,
                                         std::size_t row_end,
                                         CorrectionScratch& ws,
                                         Vector& c) const {
  std::size_t k0 = 0;
  const SmootherType st = s_->smoother(0).type();
  const bool jacobi_fine = opts_.kind != AdditiveKind::kAfacx &&
                           !opts_.symmetrized_lambda && num_grids() > 1 &&
                           (st == SmootherType::kWeightedJacobi ||
                            st == SmootherType::kL1Jacobi);
  if (jacobi_fine) {
    const Vector& d = s_->smoother(0).inv_diag();
    for (std::size_t i = row_begin; i < row_end; ++i) {
      acc[i] += d[i] * r[i];
    }
    k0 = 1;
  }
  for (std::size_t k = k0; k < num_grids(); ++k) {
    correction(k, r, c, ws);
    for (std::size_t i = row_begin; i < row_end; ++i) acc[i] += c[i];
  }
}

std::vector<double> AdditiveCorrector::work() const {
  const std::size_t nl = s_->num_levels();
  std::vector<double> w(nl, 0.0);
  for (std::size_t k = 0; k < nl; ++k) {
    // Chain transport: one restriction + one prolongation per level below k.
    double chain = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      chain += 4.0 * static_cast<double>(interp(j).nnz());
    }
    // Smoothing at level k (AFACx also smooths at k+1 and multiplies by A_k).
    double smooth = 2.0 * static_cast<double>(s_->a(k).nnz());
    if (opts_.kind == AdditiveKind::kAfacx && k + 1 < nl) {
      smooth += 2.0 * static_cast<double>(s_->a(k + 1).nnz()) *
                static_cast<double>(opts_.afacx_s2);
      smooth += 2.0 * static_cast<double>(s_->a(k).nnz()) *
                static_cast<double>(opts_.afacx_s1);
    }
    w[k] = chain + smooth;
  }
  return w;
}

AdditiveMg::AdditiveMg(const MgSetup& setup, AdditiveOptions opts)
    : corrector_(setup, opts) {}

void AdditiveMg::cycle(const Vector& b, Vector& x) {
  const MgSetup& s = corrector_.setup();
  const KernelBackend& be = s.backend();
  be.csr_residual(s.a(0), b, x, r_, /*parallel=*/true);
  for (std::size_t k = 0; k < corrector_.num_grids(); ++k) {
    corrector_.correction(k, r_, c_, ws_);
    axpy(1.0, c_, x);
  }
}

SolveStats AdditiveMg::solve(const Vector& b, Vector& x, int t_max,
                             double tol) {
  SolveStats stats;
  Timer timer;
  const MgSetup& s = corrector_.setup();
  const double bnorm = norm2(b);
  const double scale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;
  const KernelBackend& be = s.backend();
  Vector r;
  be.csr_residual(s.a(0), b, x, r, /*parallel=*/true);
  stats.rel_res_history.push_back(norm2(r) * scale);
  for (int t = 0; t < t_max; ++t) {
    cycle(b, x);
    ++stats.cycles;
    be.csr_residual(s.a(0), b, x, r, /*parallel=*/true);
    const double rr = norm2(r) * scale;
    stats.rel_res_history.push_back(rr);
    if (tol > 0.0 && rr < tol) {
      stats.converged = true;
      break;
    }
  }
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace asyncmg
