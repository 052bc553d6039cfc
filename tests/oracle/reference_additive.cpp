#include "oracle/reference_additive.hpp"

namespace asyncmg::oracle {
namespace {

const CsrMatrix& interp(const MgSetup& s, const AdditiveOptions& opts,
                        std::size_t j) {
  return opts.kind == AdditiveKind::kMultadd ? s.pbar(j) : s.p(j);
}

void solve_coarsest(const MgSetup& s, const Vector& r, Vector& e) {
  if (!s.coarse_solver().empty()) {
    s.coarse_solver().solve(r, e);
  } else {
    s.smoother(s.num_levels() - 1).apply_zero(r, e);
  }
}

}  // namespace

void reference_correction(const MgSetup& s, const AdditiveOptions& opts,
                          std::size_t k, const Vector& r_fine, Vector& c) {
  const std::size_t coarsest = s.num_levels() - 1;
  // Restrict the fine residual down to level k through the method's
  // interpolant chain (the plain one for BPX and AFACx).
  Vector r = r_fine;
  Vector next;
  for (std::size_t j = 0; j < k; ++j) {
    interp(s, opts, j).spmv_transpose(r, next);
    r.swap(next);
  }
  Vector e;
  if (k == coarsest) {
    solve_coarsest(s, r, e);
  } else if (opts.kind == AdditiveKind::kAfacx) {
    // r_{k+1} = P^T r_k, e_{k+1} smoothed from zero (s2 sweeps), then e_k
    // smoothed from zero on r_k - A_k P e_{k+1} (s1 sweeps).
    Vector r_next, u, pu, apu;
    s.p(k).spmv_transpose(r, r_next);
    if (k + 1 == coarsest && !s.coarse_solver().empty()) {
      s.coarse_solver().solve(r_next, u);
    } else {
      s.smoother(k + 1).smooth_zero(r_next, u, opts.afacx_s2);
    }
    s.p(k).spmv(u, pu);
    s.a(k).spmv(pu, apu);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] -= apu[i];
    s.smoother(k).smooth_zero(r, e, opts.afacx_s1);
  } else if (opts.symmetrized_lambda) {
    s.smoother(k).apply_symmetrized(r, e);
  } else {
    s.smoother(k).apply_zero(r, e);
  }
  // Prolong back to every fine row.
  for (std::size_t j = k; j-- > 0;) {
    interp(s, opts, j).spmv(e, next);
    e.swap(next);
  }
  c = std::move(e);
}

void reference_additive_cycle(const MgSetup& s, const AdditiveOptions& opts,
                              const Vector& r, Vector& acc) {
  Vector c;
  for (std::size_t k = 0; k < s.num_levels(); ++k) {
    reference_correction(s, opts, k, r, c);
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += c[i];
  }
}

}  // namespace asyncmg::oracle
