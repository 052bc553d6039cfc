#include "oracle/reference_cycle.hpp"

#include <cmath>

#include "sparse/vec.hpp"

namespace asyncmg::oracle {
namespace {

struct Cycle {
  const MgSetup& s;
  const CycleShape& shape;
  ReferenceLevels& lv;

  /// Recursive multigrid on A_k e_k = r_k: reads lv.r[k], leaves the
  /// correction in lv.e[k].
  void level_solve(std::size_t k) {
    Vector& r = lv.r[k];
    Vector& e = lv.e[k];
    if (k + 1 == s.num_levels()) {
      if (!s.coarse_solver().empty()) {
        s.coarse_solver().solve(r, e);
      } else {
        s.smoother(k).apply_zero(r, e);
      }
      return;
    }
    Vector& tmp = lv.tmp[k];

    if (shape.pre_sweeps == 0) {
      fill(e, 0.0);
    } else {
      s.smoother(k).smooth_zero(r, e, shape.pre_sweeps);
    }

    for (int g = 0; g < shape.gamma; ++g) {
      s.a(k).spmv(e, tmp);  // tmp = A_k e_k
      for (std::size_t i = 0; i < tmp.size(); ++i) {
        tmp[i] = r[i] - tmp[i];
      }
      s.p(k).spmv_transpose(tmp, lv.r[k + 1]);  // r_{k+1} = P^T (r_k - A e_k)
      level_solve(k + 1);
      s.p(k).spmv(lv.e[k + 1], tmp);
      axpy(1.0, tmp, e);  // e_k += P e_{k+1}
    }

    for (int i = 0; i < shape.post_sweeps; ++i) {
      if (shape.symmetric) {
        s.smoother(k).sweep_transpose(r, e);
      } else {
        s.smoother(k).sweep(r, e);  // e_k += M^{-1}(r_k - A e_k)
      }
    }
  }
};

}  // namespace

void reference_cycle(const MgSetup& setup, const Vector& b, Vector& x,
                     ReferenceLevels& levels, const CycleShape& shape) {
  const std::size_t nl = setup.num_levels();
  for (auto* v : {&levels.r, &levels.e, &levels.tmp}) {
    v->resize(nl);
    for (std::size_t k = 0; k < nl; ++k) {
      (*v)[k].resize(static_cast<std::size_t>(setup.a(k).rows()));
    }
  }
  setup.a(0).residual(b, x, levels.r[0]);
  Cycle{setup, shape, levels}.level_solve(0);
  axpy(1.0, levels.e[0], x);
}

SolveStats reference_solve(const MgSetup& setup, const Vector& b, Vector& x,
                           int t_max, double tol, const CycleShape& shape) {
  SolveStats stats;
  ReferenceLevels levels;
  const double bnorm = norm2(b);
  const double scale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;
  Vector r;
  const auto rel_res = [&]() {
    setup.a(0).residual(b, x, r);
    return norm2(r) * scale;
  };
  stats.rel_res_history.push_back(rel_res());
  for (int t = 0; t < t_max; ++t) {
    reference_cycle(setup, b, x, levels, shape);
    ++stats.cycles;
    const double rr = rel_res();
    stats.rel_res_history.push_back(rr);
    if (tol > 0.0 && rr < tol) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

}  // namespace asyncmg::oracle
