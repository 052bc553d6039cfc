#include "multigrid/mult.hpp"

#include <cmath>
#include <stdexcept>

#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/timer.hpp"

namespace asyncmg {

namespace {

/// Runs one cycle entry with `tel` detached when the sink is attached but
/// disabled, so a disabled sink costs one branch per cycle, not one per
/// phase.
template <class Body>
void detach_if_disabled(TelemetrySink*& tel, Body&& body) {
  TelemetrySink* const saved = tel;
  if (saved != nullptr && !saved->enabled()) tel = nullptr;
  body();
  tel = saved;
}

}  // namespace

MultiplicativeMg::MultiplicativeMg(const MgSetup& setup, bool symmetric,
                                   int pre_sweeps, int post_sweeps, int gamma)
    : s_(&setup),
      be_(&setup.backend()),
      symmetric_(symmetric),
      pre_sweeps_(pre_sweeps),
      post_sweeps_(post_sweeps),
      gamma_(gamma),
      ws_(setup) {
  if (pre_sweeps < 0 || post_sweeps < 0 || pre_sweeps + post_sweeps == 0) {
    throw std::invalid_argument(
        "MultiplicativeMg: need nonnegative sweep counts, at least one");
  }
  if (gamma < 1) {
    throw std::invalid_argument("MultiplicativeMg: gamma must be >= 1");
  }
}

void MultiplicativeMg::set_telemetry(TelemetrySink* sink, std::size_t tid) {
  tel_ = sink;
  tel_tid_ = tid;
  if (sink != nullptr) {
    ctr_bytes_ = &sink->metrics().counter("kernel.bytes_moved");
    ctr_sweeps_ = &sink->metrics().counter("kernel.fused_sweeps");
    // Tag the kernel backend once per attach; the scalar oracle emits
    // nothing, keeping the golden trace fixtures byte-identical.
    if (be_->kind() != BackendKind::kScalar) {
      sink->record(tid, EventKind::kBackendSelect,
                   static_cast<std::int64_t>(be_->kind()),
                   static_cast<std::int64_t>(s_->options().engine.backend));
    }
    // Tag reduced-precision levels once per attach. All-fp64 setups emit
    // nothing, keeping the golden trace fixtures byte-identical.
    for (std::size_t k = 0; k < s_->num_levels(); ++k) {
      const Precision p = s_->a(k).precision();
      if (p != Precision::kF64) {
        sink->record(tid, EventKind::kLevelPrecision,
                     static_cast<std::int64_t>(k),
                     static_cast<std::int64_t>(p));
      }
    }
  } else {
    ctr_bytes_ = nullptr;
    ctr_sweeps_ = nullptr;
  }
}

void MultiplicativeMg::phase_mark(EventKind kind, CyclePhase phase,
                                  std::size_t level) {
  tel_->record(tel_tid_, kind, static_cast<std::int64_t>(phase),
               static_cast<std::int64_t>(level));
}

void MultiplicativeMg::sweep_level(std::size_t k, const Vector& b, Vector& x) {
  const Smoother& sm = s_->smoother(k);
  const SellMatrix* sell = s_->sell(k);
  if (sell != nullptr) {
    // The setup heuristic only builds SELL for diagonal-type smoothers, so
    // the fused Jacobi sweep applies; swap brings the new iterate into x.
    be_->sell_diag_sweep(*sell, sm.inv_diag(), b, x, ws_.swp(k),
                         /*parallel=*/true);
    x.swap(ws_.swp(k));
  } else {
    sm.sweep_ws(b, x, ws_.swp(k));
  }
  if (tel_ != nullptr) {
    ctr_sweeps_->add(1);
    ctr_bytes_->add(sell != nullptr ? sell_pass_bytes(*sell)
                                    : csr_pass_bytes(s_->a(k)));
  }
}

void MultiplicativeMg::coarse_corrections(std::size_t k) {
  Vector& r = ws_.r(k);
  Vector& e = ws_.e(k);
  const SellMatrix* sell = s_->sell(k);
  for (int g = 0; g < gamma_; ++g) {
    pb(CyclePhase::kRestrict, k);
    // tmp = r_k - A_k e_k in one pass over A (spmv accumulation order),
    // then restrict through the stored P^T with a row-parallel SpMV --
    // entry-for-entry the same additions as spmv_transpose, without its
    // scatter writes.
    if (sell != nullptr) {
      be_->sell_sub_spmv(*sell, r, e, ws_.tmp(k), /*parallel=*/true);
    } else {
      be_->csr_sub_spmv(s_->a(k), r, e, ws_.tmp(k), /*parallel=*/true);
    }
    be_->restrict_apply(s_->r(k), ws_.tmp(k), ws_.r(k + 1), /*parallel=*/true);
    pe(CyclePhase::kRestrict, k);
    if (tel_ != nullptr) {
      ctr_bytes_->add((sell != nullptr ? sell_pass_bytes(*sell)
                                       : csr_pass_bytes(s_->a(k))) +
                      csr_pass_bytes(s_->r(k)));
    }
    level_solve(k + 1);
    pb(CyclePhase::kProlong, k);
    // e_k += P e_{k+1}
    be_->prolong_add(s_->p(k), ws_.e(k + 1), e, /*parallel=*/true);
    pe(CyclePhase::kProlong, k);
    if (tel_ != nullptr) ctr_bytes_->add(csr_pass_bytes(s_->p(k)));
  }
}

void MultiplicativeMg::level_solve(std::size_t k) {
  if (k + 1 == s_->num_levels()) {
    // Exact solve when available, a smoothing sweep otherwise.
    pb(CyclePhase::kCoarseSolve, k);
    if (!s_->coarse_solver().empty()) {
      s_->coarse_solver().solve(ws_.r(k), ws_.e(k));
    } else {
      s_->smoother(k).apply_zero(ws_.r(k), ws_.e(k));
    }
    pe(CyclePhase::kCoarseSolve, k);
    return;
  }

  Vector& r = ws_.r(k);
  Vector& e = ws_.e(k);

  // Pre-smooth from a zero initial guess.
  pb(CyclePhase::kPreSmooth, k);
  if (pre_sweeps_ == 0) {
    fill(e, 0.0);
  } else {
    s_->smoother(k).apply_zero(r, e);
    for (int s = 1; s < pre_sweeps_; ++s) sweep_level(k, r, e);
  }
  pe(CyclePhase::kPreSmooth, k);

  coarse_corrections(k);

  // Post-smooth. For SELL levels the smoother is diagonal, so the
  // transposed sweep coincides with the plain one and the fused kernel
  // covers the symmetric cycle too.
  pb(CyclePhase::kPostSmooth, k);
  for (int s = 0; s < post_sweeps_; ++s) {
    if (symmetric_ && s_->sell(k) == nullptr) {
      s_->smoother(k).sweep_transpose_ws(r, e, ws_.swp(k), ws_.tmp(k));
    } else {
      sweep_level(k, r, e);
    }
  }
  pe(CyclePhase::kPostSmooth, k);
}

void MultiplicativeMg::cycle(const Vector& b, Vector& x) {
  detach_if_disabled(tel_, [&] {
    pb(CyclePhase::kResidual, 0);
    if (s_->sell(0) != nullptr) {
      be_->sell_residual(*s_->sell(0), b, x, ws_.r(0), /*parallel=*/true);
    } else {
      be_->csr_residual(s_->a(0), b, x, ws_.r(0), /*parallel=*/true);
    }
    pe(CyclePhase::kResidual, 0);
    level_solve(0);
    axpy(1.0, ws_.e(0), x);
  });
}

void MultiplicativeMg::precondition(const Vector& r, Vector& z) {
  detach_if_disabled(tel_, [&] {
    // From x = 0 the level-0 residual is r itself (b - A*0 == b entry for
    // entry) and the corrected iterate is the correction (0 + e == e).
    if (&r != &ws_.r(0)) ws_.r(0) = r;
    level_solve(0);
    if (&z != &ws_.e(0)) z = ws_.e(0);
  });
}

SolveStats MultiplicativeMg::solve(const Vector& b, Vector& x, int t_max,
                                   double tol, const StopPredicate& stop) {
  SolveStats stats;
  Timer timer;
  const double bnorm = norm2(b);
  const double scale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;
  // tmp(0) is free between cycles; the fused residual+norm makes the
  // convergence check a single pass over A_0.
  Vector& r = ws_.tmp(0);
  const auto rel_res = [&]() {
    return std::sqrt(be_->csr_residual_norm_sq(s_->a(0), b, x, r,
                                               /*parallel=*/true)) *
           scale;
  };
  stats.rel_res_history.push_back(rel_res());
  for (int t = 0; t < t_max; ++t) {
    if (stop && stop()) {
      stats.stopped = true;
      break;
    }
    cycle(b, x);
    ++stats.cycles;
    const double rr = rel_res();
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
