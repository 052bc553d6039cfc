#include "multigrid/pcg.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "backend/backend.hpp"
#include "sparse/vec.hpp"
#include "util/timer.hpp"

namespace asyncmg {

namespace {

/// A_0 as the iteration applies it: through `be`, on the SELL form when the
/// level has one. Every backend's SELL and CSR kernels are bitwise the
/// serial CSR kernels, so the choice changes speed only.
struct FineOperator {
  const KernelBackend& be;
  const CsrMatrix& a;
  const SellMatrix* sell = nullptr;

  void apply(const Vector& x, Vector& y) const {
    if (sell != nullptr) {
      be.sell_spmv(*sell, x, y, /*parallel=*/true);
    } else {
      be.csr_spmv(a, x, y, /*parallel=*/true);
    }
  }
  /// r = b - A x; returns ||r||_2.
  double residual(const Vector& b, const Vector& x, Vector& r) const {
    if (sell != nullptr) {
      be.sell_residual(*sell, b, x, r, /*parallel=*/true);
      return norm2(r);
    }
    return std::sqrt(be.csr_residual_norm_sq(a, b, x, r, /*parallel=*/true));
  }
};

/// The one PCG iteration body (rules in pcg.hpp). r, z, p and ap are
/// scratch; z = precond(r) must leave r unchanged.
SolveStats pcg_iterate(const FineOperator& op, const Vector& b, Vector& x,
                       const Preconditioner& precond, const PcgOptions& opts,
                       const StopPredicate& stop, Vector& r, Vector& z,
                       Vector& p, Vector& ap) {
  if (op.a.rows() != op.a.cols() ||
      static_cast<std::size_t>(op.a.rows()) != b.size()) {
    throw std::invalid_argument("pcg_solve: shape mismatch");
  }
  SolveStats stats;
  // Sized up front so the history pushes never reallocate: the iteration
  // itself is then heap-free once the workspace is warm.
  stats.rel_res_history.reserve(static_cast<std::size_t>(opts.max_iterations) +
                                1);
  Timer timer;
  const std::size_t n = b.size();
  x.resize(n, 0.0);
  z.resize(n);
  p.resize(n);
  ap.resize(n);

  const double bnorm = norm2(b);
  const double scale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;
  const auto true_rel_res = [&] { return op.residual(b, x, r) * scale; };

  double rel = true_rel_res();
  stats.rel_res_history.push_back(rel);
  bool exact = true;        // r is b - A x, not the recurrence's estimate
  bool restart = true;      // next direction is p = z (fresh Krylov space)
  bool broke_down = false;  // the last restart came from a breakdown
  double rz = 0.0;
  for (;;) {
    if (rel < opts.tol) {
      if (exact) {
        stats.converged = true;
        break;
      }
      // The recurrence residual drifts from b - A x in floating point (it
      // can fall far below the attainable accuracy): confirm on the true
      // residual, and restart from the current iterate when it misses.
      rel = true_rel_res();
      stats.rel_res_history.back() = rel;
      exact = restart = true;
      continue;
    }
    if (stats.cycles >= opts.max_iterations) break;
    if (stop && stop()) {
      stats.stopped = true;
      break;
    }

    if (precond) {
      precond(r, z);
    } else {
      z = r;
    }
    const double rz_new = dot(r, z);
    if (restart) {
      p = z;
    } else {
      const double beta = rz_new / rz;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    rz = rz_new;
    op.apply(p, ap);
    const double pap = dot(p, ap);
    const double alpha = rz / pap;
    if (!(pap > 0.0) || !(rz > 0.0) || !std::isfinite(alpha)) {
      // Breakdown: A or M is not SPD along this direction, or a scalar
      // overflowed. x is untouched, so it is still the last finite iterate.
      if (broke_down) break;
      broke_down = true;
      rel = true_rel_res();
      stats.rel_res_history.back() = rel;
      exact = restart = true;
      continue;
    }
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    ++stats.cycles;
    exact = restart = broke_down = false;
    rel = norm2(r) * scale;
    stats.rel_res_history.push_back(rel);
  }
  if (!exact) stats.rel_res_history.back() = true_rel_res();
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace

SolveStats pcg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& precond, const PcgOptions& opts) {
  PcgWorkspace ws;
  return pcg_solve(a, b, x, precond, opts, ws);
}

SolveStats pcg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& precond, const PcgOptions& opts,
                     PcgWorkspace& ws) {
  // The CSR kernels are the same code in every backend; the scalar one
  // needs no setup.
  const FineOperator op{scalar_backend(), a};
  return pcg_iterate(op, b, x, precond, opts, {}, ws.r, ws.z, ws.p, ws.ap);
}

SolveStats pcg_solve(MultiplicativeMg& mg, const Vector& b, Vector& x,
                     const PcgOptions& opts, const StopPredicate& stop) {
  const MgSetup& s = mg.setup();
  const FineOperator op{s.backend(), s.a(0), s.sell(0)};
  CycleWorkspace& ws = mg.workspace();
  // r and z are the cycle's own level-0 residual and correction, so the
  // preconditioner copies nothing; A p only lives between the SpMV and the
  // next preconditioner call, which is when tmp(0) is free.
  const Preconditioner precond = [&mg](const Vector& r, Vector& z) {
    mg.precondition(r, z);
  };
  Vector p;
  return pcg_iterate(op, b, x, precond, opts, stop, ws.r(0), ws.e(0), p,
                     ws.tmp(0));
}

Preconditioner make_mg_preconditioner(const MgSetup& setup,
                                      MgPreconditionerKind kind) {
  switch (kind) {
    case MgPreconditionerKind::kBpx:
    case MgPreconditionerKind::kMultaddSymmetrized: {
      AdditiveOptions ao;
      ao.kind = kind == MgPreconditionerKind::kBpx ? AdditiveKind::kBpx
                                                   : AdditiveKind::kMultadd;
      ao.symmetrized_lambda = kind == MgPreconditionerKind::kMultaddSymmetrized;
      auto corr = std::make_shared<AdditiveCorrector>(setup, ao);
      // The lambda owns its correction scratch (the header's "workspaces
      // shared across calls" contract), so repeated applications allocate
      // nothing once the buffers are warm.
      auto ws = std::make_shared<CorrectionScratch>();
      auto c = std::make_shared<Vector>();
      return [corr, ws, c](const Vector& r, Vector& z) {
        z.assign(r.size(), 0.0);
        corr->accumulate_cycle(r, z, 0, r.size(), *ws, *c);
      };
    }
    case MgPreconditionerKind::kSymmetricVCycle: {
      auto mg = std::make_shared<MultiplicativeMg>(setup, /*symmetric=*/true);
      return [mg](const Vector& r, Vector& z) {
        mg->precondition(r, z);  // one symmetric V(1,1) on A z = r from zero
      };
    }
  }
  throw std::invalid_argument("unknown preconditioner kind");
}

}  // namespace asyncmg
