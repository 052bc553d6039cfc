#include "multigrid/pcg.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "backend/backend.hpp"
#include "sparse/vec.hpp"
#include "util/timer.hpp"

namespace asyncmg {

SolveStats pcg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& precond, const PcgOptions& opts) {
  PcgWorkspace ws;
  return pcg_solve(a, b, x, precond, opts, ws);
}

SolveStats pcg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& precond, const PcgOptions& opts,
                     PcgWorkspace& ws) {
  if (a.rows() != a.cols() ||
      static_cast<std::size_t>(a.rows()) != b.size()) {
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

  const double bnorm = norm2(b);
  const double scale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;

  Vector& r = ws.r;
  // The CSR kernels are the same code in every backend; the scalar one
  // needs no setup.
  const KernelBackend& be = scalar_backend();
  be.csr_residual(a, b, x, r, /*parallel=*/true);
  stats.rel_res_history.push_back(norm2(r) * scale);

  Vector& z = ws.z;
  z.assign(n, 0.0);
  if (precond) {
    precond(r, z);
  } else {
    z = r;
  }
  Vector& p = ws.p;
  p = z;
  Vector& ap = ws.ap;
  ap.resize(n);
  double rz = dot(r, z);

  for (int it = 0; it < opts.max_iterations; ++it) {
    be.csr_spmv(a, p, ap, /*parallel=*/true);
    const double pap = dot(p, ap);
    if (pap <= 0.0) {
      // Loss of positive definiteness (numerically), stop with what we have.
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    ++stats.cycles;

    const double rr = norm2(r) * scale;
    stats.rel_res_history.push_back(rr);
    if (rr < opts.tol) {
      stats.converged = true;
      break;
    }

    if (precond) {
      precond(r, z);
    } else {
      z = r;
    }
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  stats.seconds = timer.seconds();
  return stats;
}

Preconditioner make_mg_preconditioner(const MgSetup& setup,
                                      MgPreconditionerKind kind) {
  switch (kind) {
    case MgPreconditionerKind::kBpx: {
      AdditiveOptions ao;
      ao.kind = AdditiveKind::kBpx;
      auto corr = std::make_shared<AdditiveCorrector>(setup, ao);
      // The lambda owns its correction scratch (the header's "workspaces
      // shared across calls" contract), so repeated applications allocate
      // nothing once the buffers are warm.
      auto ws = std::make_shared<CorrectionScratch>();
      auto c = std::make_shared<Vector>();
      return [corr, ws, c](const Vector& r, Vector& z) {
        z.assign(r.size(), 0.0);
        for (std::size_t k = 0; k < corr->num_grids(); ++k) {
          corr->correction(k, r, *c, *ws);
          axpy(1.0, *c, z);
        }
      };
    }
    case MgPreconditionerKind::kMultaddSymmetrized: {
      AdditiveOptions ao;
      ao.kind = AdditiveKind::kMultadd;
      ao.symmetrized_lambda = true;
      auto corr = std::make_shared<AdditiveCorrector>(setup, ao);
      auto ws = std::make_shared<CorrectionScratch>();
      auto c = std::make_shared<Vector>();
      return [corr, ws, c](const Vector& r, Vector& z) {
        z.assign(r.size(), 0.0);
        for (std::size_t k = 0; k < corr->num_grids(); ++k) {
          corr->correction(k, r, *c, *ws);
          axpy(1.0, *c, z);
        }
      };
    }
    case MgPreconditionerKind::kSymmetricVCycle: {
      auto mg = std::make_shared<MultiplicativeMg>(setup, /*symmetric=*/true);
      return [mg](const Vector& r, Vector& z) {
        z.assign(r.size(), 0.0);
        mg->cycle(r, z);  // one symmetric V(1,1) on A z = r from zero
      };
    }
  }
  throw std::invalid_argument("unknown preconditioner kind");
}

}  // namespace asyncmg
