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

const CsrMatrix& AdditiveCorrector::restriction(std::size_t j) const {
  return opts_.kind == AdditiveKind::kMultadd ? s_->rbar(j) : s_->r(j);
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

// Every restriction is an SpMV through the stored transpose (MgSetup::r /
// rbar): entry for entry the additions of the scatter P^T-product, in the
// same order, without its scatter writes (as in MultiplicativeMg).
void AdditiveCorrector::correction(std::size_t k, const Vector& r_fine,
                                   Vector& c, CorrectionScratch& ws) const {
  const KernelBackend& be = s_->backend();
  const Vector* rk = &r_fine;
  for (std::size_t j = 0; j < k; ++j) {
    Vector& dst = rk == &ws.r ? ws.next : ws.r;
    be.restrict_apply(restriction(j), *rk, dst, /*parallel=*/false);
    rk = &dst;
  }
  const bool afacx_next =
      opts_.kind == AdditiveKind::kAfacx && k + 1 < num_grids();
  if (afacx_next) {
    be.restrict_apply(restriction(k), *rk, ws.r_next, /*parallel=*/false);
  }
  level_correction(k, *rk, afacx_next ? &ws.r_next : nullptr, ws);
  prolong_to_level1(k, ws);
  if (k > 0) {
    be.csr_spmv(interp(0), ws.e, ws.next, /*parallel=*/false);
    ws.e.swap(ws.next);
  }
  c.swap(ws.e);  // result moves to c; c's old buffer becomes scratch
}

void AdditiveCorrector::level_correction(std::size_t k, const Vector& rk,
                                         const Vector* rk1,
                                         CorrectionScratch& ws) const {
  Vector& e = ws.e;
  if (k + 1 == num_grids()) {
    // The coarsest grid contributes its (exact) solve directly.
    solve_coarsest(rk, e);
  } else if (opts_.kind == AdditiveKind::kAfacx) {
    // Smooth e_{k+1} from zero on r_{k+1} (s2 sweeps).
    Vector& u = ws.u;
    if (k + 2 == num_grids() && !s_->coarse_solver().empty()) {
      s_->coarse_solver().solve(*rk1, u);
    } else {
      s_->smoother(k + 1).smooth_zero_ws(*rk1, u, opts_.afacx_s2, ws.swp);
    }
    // Modified right-hand side r_k - A_k P u (Alg. 2 lines 8-9), then
    // smooth e_k from zero (s1 sweeps); the grid-k correction is just
    // P_k^0 e_k, no subtraction needed.
    const KernelBackend& be = s_->backend();
    be.csr_spmv(s_->p(k), u, ws.pu, /*parallel=*/false);
    be.csr_spmv(s_->a(k), ws.pu, ws.apu, /*parallel=*/false);
    Vector& rhs = ws.r;  // may alias rk (correction's chain); elementwise
    rhs.resize(rk.size());
    for (std::size_t i = 0; i < rk.size(); ++i) rhs[i] = rk[i] - ws.apu[i];
    s_->smoother(k).smooth_zero_ws(rhs, e, opts_.afacx_s1, ws.swp);
  } else if (opts_.symmetrized_lambda) {
    // The chain kinds never touch the AFACx buffers, so they double as the
    // symmetrized application's temporaries (identical results, no
    // allocation once warm).
    s_->smoother(k).apply_symmetrized_ws(rk, e, ws.u, ws.pu, ws.apu);
  } else {
    s_->smoother(k).apply_zero(rk, e);
  }
}

void AdditiveCorrector::prolong_to_level1(std::size_t k,
                                          CorrectionScratch& ws) const {
  const KernelBackend& be = s_->backend();
  for (std::size_t j = k; j-- > 1;) {
    be.csr_spmv(interp(j), ws.e, ws.next, /*parallel=*/false);
    ws.e.swap(ws.next);
  }
}

void AdditiveCorrector::accumulate_cycle(const Vector& r, Vector& acc,
                                         std::size_t row_begin,
                                         std::size_t row_end,
                                         CorrectionScratch& ws,
                                         Vector& c) const {
  const std::size_t nl = num_grids();
  const KernelBackend& be = s_->backend();
  // One restriction chain serves every grid: grid k reads level k of it.
  ws.levels.resize(nl);
  const auto level = [&](std::size_t j) -> const Vector& {
    return j == 0 ? r : ws.levels[j];
  };
  for (std::size_t j = 1; j < nl; ++j) {
    be.restrict_apply(restriction(j - 1), level(j - 1), ws.levels[j],
                      /*parallel=*/false);
  }

  std::size_t k0 = 0;
  const SmootherType st = s_->smoother(0).type();
  const bool jacobi_fine = opts_.kind != AdditiveKind::kAfacx &&
                           !opts_.symmetrized_lambda && nl > 1 &&
                           (st == SmootherType::kWeightedJacobi ||
                            st == SmootherType::kL1Jacobi);
  if (jacobi_fine) {
    const Vector& d = s_->smoother(0).inv_diag();
    for (std::size_t i = row_begin; i < row_end; ++i) {
      acc[i] += d[i] * r[i];
    }
    k0 = 1;
  }
  for (std::size_t k = k0; k < nl; ++k) {
    level_correction(k, level(k), k + 1 < nl ? &ws.levels[k + 1] : nullptr,
                     ws);
    prolong_to_level1(k, ws);
    const Vector* ck = &ws.e;
    if (k > 0) {
      // Rows of P_1^0 are independent: compute only the caller's.
      c.resize(r.size());
      be.csr_spmv_rows(interp(0), ws.e, c, static_cast<Index>(row_begin),
                       static_cast<Index>(row_end));
      ck = &c;
    }
    for (std::size_t i = row_begin; i < row_end; ++i) acc[i] += (*ck)[i];
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
  s.backend().csr_residual(s.a(0), b, x, r_, /*parallel=*/true);
  corrector_.accumulate_cycle(r_, x, 0, x.size(), ws_, c_);
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
