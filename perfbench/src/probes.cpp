#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "amg/coarsen.hpp"
#include "amg/interp.hpp"
#include "amg/strength.hpp"
#include "multigrid/mult.hpp"
#include "shard/solver.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace asyncmg;

double true_rel_res(const CsrMatrix& a, const Vector& b, const Vector& x) {
  Vector r(b.size(), 0.0);
  a.residual(b, x, r);
  const double nb = norm2(b);
  return nb > 0.0 ? norm2(r) / nb : norm2(r);
}

Metrics probe_amg(const CsrMatrix& a, const MgOptions& mo, int reps,
                  Tracer& tr) {
  const AmgOptions& o = mo.amg;
  if (o.num_functions != 1) {
    throw std::invalid_argument("probe_amg: scalar problems only");
  }
  std::vector<double> strength, coarsen, interp, rap, derived;
  std::size_t levels = 0;
  double op_complexity = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    HierarchyBuilder hb(CsrMatrix(a), o);
    bool more = true;
    while (more) {
      timed(tr, "amg.HierarchyBuilder.step", [&] { more = hb.step(); });
    }
    Hierarchy h;
    timed(tr, "amg.HierarchyBuilder.finish", [&] { h = hb.finish(); });
    levels = h.num_levels();
    op_complexity = h.operator_complexity();

    // Replay every coarsening step through the phase functions, exactly as
    // HierarchyBuilder::step sequences them.
    double ts = 0.0, tc = 0.0, ti = 0.0, tr_ = 0.0;
    for (std::size_t k = 0; k + 1 < h.num_levels(); ++k) {
      const CsrMatrix& ak = h.matrix(k);
      CsrMatrix s;
      ts += timed(tr, "amg.strength_matrix", [&] {
        s = strength_matrix_mapped(ak, o.strength_theta, o.strength_norm, {},
                                   o.setup_threads);
      });
      const bool aggressive = static_cast<int>(k) < o.num_aggressive_levels;
      CoarsenParams cp;
      cp.algo = o.coarsening;
      cp.weights = o.coarsen_weights;
      cp.seed = coarsen_level_seed(o.seed, static_cast<Index>(k));
      cp.num_threads = o.setup_threads;
      Splitting split;
      tc += timed(tr, "amg.coarsen_parallel", [&] {
        split = coarsen_parallel(s, cp);
        if (aggressive) split = coarsen_aggressive_parallel(s, split, cp);
      });
      CsrMatrix p;
      ti += timed(tr, "amg.build_interpolation", [&] {
        p = build_interpolation(
            aggressive ? InterpAlgo::kMultipass : o.interpolation, ak, s,
            split, o.setup_threads);
        p = truncate_interpolation(p, o.trunc_factor, o.setup_threads);
      });
      CsrMatrix ac;
      tr_ += timed(tr, "amg.galerkin_product",
                   [&] { ac = galerkin_product(ak, p, o.setup_threads); });
      if (ac.rows() != h.matrix(k + 1).rows() ||
          ac.nnz() != h.matrix(k + 1).nnz()) {
        throw std::runtime_error(
            "probe_amg: phase replay differs from HierarchyBuilder at level " +
            std::to_string(k));
      }
    }
    strength.push_back(ts);
    coarsen.push_back(tc);
    interp.push_back(ti);
    rap.push_back(tr_);

    Hierarchy copy = h;
    std::unique_ptr<MgSetup> ms;
    derived.push_back(timed(tr, "multigrid.MgSetup", [&] {
      ms = std::make_unique<MgSetup>(std::move(copy), mo);
    }));
  }
  Metrics m;
  m["amg.strength_s"] = {median(strength), "s"};
  m["amg.coarsen_s"] = {median(coarsen), "s"};
  m["amg.interp_s"] = {median(interp), "s"};
  m["amg.rap_s"] = {median(rap), "s"};
  m["amg.levels"] = {static_cast<double>(levels), "count"};
  m["amg.operator_complexity"] = {op_complexity, "ratio"};
  m["multigrid.derived_setup_s"] = {median(derived), "s"};
  return m;
}

namespace {

/// Median seconds per call of `fn`, timed in batches sized to at least
/// 0.2 ms so the clock resolution does not matter; each batch is a span.
template <class Fn>
double kernel_seconds(Tracer& tr, const std::string& name, double budget_s,
                      Fn&& fn) {
  fn();  // warm caches and the OpenMP team
  int batch = 1;
  while (true) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (s >= 2e-4 || batch >= (1 << 16)) break;
    batch *= 4;
  }
  std::vector<double> per_call;
  double spent = 0.0;
  while (per_call.size() < 5 || (spent < budget_s && per_call.size() < 64)) {
    const double s = timed(tr, name, [&] {
      for (int i = 0; i < batch; ++i) fn();
    });
    spent += s;
    per_call.push_back(s / batch);
  }
  return median(per_call);
}

}  // namespace

Metrics probe_backend(const MgSetup& setup, double ceiling_gbps,
                      std::size_t level_slots, double budget_s, Tracer& tr) {
  const KernelBackend& be = setup.backend();
  const std::size_t nl = setup.num_levels();
  const double per_kernel =
      budget_s / static_cast<double>(4 * std::max<std::size_t>(1, nl - 1) + 1);
  constexpr double kD = sizeof(double);
  Rng rng(0xbacc0de);
  Metrics m;
  for (std::size_t k = 0; k < level_slots; ++k) {
    const std::string pre = "backend.L" + std::to_string(k) + ".";
    double sweep = 0.0, resid = 0.0, restr = 0.0, prol = 0.0, gbps = 0.0;
    if (k + 1 < nl) {
      const CsrMatrix& a = setup.a(k);
      const SellMatrix* sell = setup.sell(k);
      const Smoother& sm = setup.smoother(k);
      const Vector& d = sm.inv_diag();
      const auto n = static_cast<std::size_t>(a.rows());
      const auto nc = static_cast<std::size_t>(setup.a(k + 1).rows());
      const Vector b = random_vector(n, rng), x0 = random_vector(n, rng),
                   ec = random_vector(nc, rng);
      Vector x = x0, out(n, 0.0), r = random_vector(n, rng), e = x0,
             tmp(n, 0.0), rc(nc, 0.0);
      const double mat = static_cast<double>(
          sell != nullptr ? sell_pass_bytes(*sell) : csr_pass_bytes(a));
      const double dn = kD * static_cast<double>(n);
      const double dnc = kD * static_cast<double>(nc);

      sweep = kernel_seconds(tr, pre + "sweep", per_kernel, [&] {
        if (sell != nullptr) {
          be.sell_diag_sweep(*sell, d, b, x, out, true);
        } else if (d.size() == n) {
          be.csr_diag_sweep(a, d, b, x, out, true);
        } else {
          sm.sweep_ws(b, x, out);
        }
      });
      resid = kernel_seconds(tr, pre + "residual", per_kernel, [&] {
        if (sell != nullptr) {
          be.sell_residual(*sell, b, x0, out, true);
        } else {
          be.csr_residual(a, b, x0, out, true);
        }
      });
      restr = kernel_seconds(tr, pre + "restrict", per_kernel, [&] {
        if (sell != nullptr) {
          be.sell_sub_spmv(*sell, r, e, tmp, true);
        } else {
          be.csr_sub_spmv(a, r, e, tmp, true);
        }
        be.restrict_apply(setup.r(k), tmp, rc, true);
      });
      prol = kernel_seconds(tr, pre + "prolong", per_kernel, [&] {
        be.prolong_add(setup.p(k), ec, e, true);
      });
      // Bytes each kernel streams, computed from the array sizes: the
      // operator pass plus every vector read or written once.
      const double bytes =
          (mat + 4 * dn) + (mat + 3 * dn) +
          (mat + 3 * dn + static_cast<double>(csr_pass_bytes(setup.r(k))) +
           dn + dnc) +
          (static_cast<double>(csr_pass_bytes(setup.p(k))) + dnc + 2 * dn);
      const double secs = sweep + resid + restr + prol;
      gbps = secs > 0.0 ? bytes / secs / 1e9 : 0.0;
    }
    m[pre + "sweep_s"] = {sweep, "s"};
    m[pre + "residual_s"] = {resid, "s"};
    m[pre + "restrict_s"] = {restr, "s"};
    m[pre + "prolong_s"] = {prol, "s"};
    m[pre + "gbps"] = {gbps, "GB/s"};
    m[pre + "ceiling_frac"] = {ceiling_gbps > 0.0 ? gbps / ceiling_gbps : 0.0,
                               "ratio"};
  }
  double coarse = 0.0;
  if (!setup.coarse_solver().empty()) {
    const auto nc = static_cast<std::size_t>(setup.a(nl - 1).rows());
    const Vector rc = random_vector(nc, rng);
    Vector ec(nc, 0.0);
    coarse = kernel_seconds(tr, "backend.coarse_solve", per_kernel,
                            [&] { setup.coarse_solver().solve(rc, ec); });
  }
  m["backend.coarse_solve_s"] = {coarse, "s"};
  m["backend.gbps_ceiling"] = {ceiling_gbps, "GB/s"};
  return m;
}

Metrics probe_cycle(const MgSetup& setup, const Vector& b, int reps,
                    Tracer& tr) {
  MultiplicativeMg mg(setup);
  Vector x(b.size(), 0.0);
  double bytes = 0.0;
  {
    TelemetrySink sink;
    mg.set_telemetry(&sink, 0);
    mg.cycle(b, x);
    bytes = static_cast<double>(
        sink.metrics().counter("kernel.bytes_moved").value());
    mg.set_telemetry(nullptr);
    (void)sink.drain();
  }
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    secs.push_back(timed(tr, "multigrid.MultiplicativeMg.cycle",
                         [&] { mg.cycle(b, x); }));
  }
  Metrics m;
  m["multigrid.cycle_s"] = {median(secs), "s"};
  m["multigrid.bytes_per_cycle"] = {bytes, "bytes"};
  return m;
}

int cycles_to_tol(const MgSetup& setup, const Vector& b, double tol,
                  Tracer& tr) {
  MultiplicativeMg mg(setup);
  Vector x(b.size(), 0.0);
  SolveStats st;
  timed(tr, "multigrid.MultiplicativeMg.solve",
        [&] { st = mg.solve(b, x, 500, tol); });
  return st.cycles;
}

double probe_mult_threaded(const MgSetup& setup, const Vector& b, double tol,
                           std::size_t threads, int reps, Tracer& tr) {
  int t_max = std::max(1, cycles_to_tol(setup, b, tol, tr));
  // The threaded cycle has the same arithmetic; step up if rounding leaves
  // it just short of the tolerance.
  for (int extra = 0; extra < 5; ++extra) {
    Vector x(b.size(), 0.0);
    run_mult_threaded(setup, b, x, t_max, threads);
    if (true_rel_res(setup.a(0), b, x) <= tol) break;
    ++t_max;
  }
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    Vector x(b.size(), 0.0);
    secs.push_back(timed(tr, "async.run_mult_threaded", [&] {
      run_mult_threaded(setup, b, x, t_max, threads);
    }));
  }
  return median(secs);
}

void CorrectionStats::add(const RuntimeResult& r) {
  if (r.corrections.empty()) return;
  const auto [lo, hi] =
      std::minmax_element(r.corrections.begin(), r.corrections.end());
  mean_sum += r.mean_corrections();
  spread_sum += static_cast<double>(*hi) / std::max(1.0, double(*lo));
  for (const int c : r.corrections) corrections += c;
  seconds += r.seconds;
  ++solves;
}

Metrics CorrectionStats::metrics() const {
  const double n = std::max<double>(1.0, static_cast<double>(solves));
  Metrics m;
  m["async.corrections_mean"] = {mean_sum / n, "count"};
  m["async.corrections_spread"] = {spread_sum / n, "ratio"};
  m["async.corrections_per_s"] = {seconds > 0.0 ? corrections / seconds : 0.0,
                                  "1/s"};
  return m;
}

RuntimeOptions paper_async_options(int t_max, std::size_t threads) {
  RuntimeOptions ro;
  ro.mode = ExecMode::kAsynchronous;
  ro.rescomp = ResComp::kLocal;
  ro.write = WritePolicy::kLockWrite;
  ro.criterion = StopCriterion::kMaster;
  ro.t_max = t_max;
  ro.num_threads = threads;
  return ro;
}

double probe_inproc_bsp(const MgSetup& setup, const Vector& b, int t_max,
                        std::size_t shards, int reps, Tracer& tr) {
  ShardOptions so;
  so.num_shards = shards;
  so.mode = ShardMode::kSyncTransport;
  so.t_max = t_max;
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  ShardedSolver solver(setup, ao, so);
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    Vector x(b.size(), 0.0);
    secs.push_back(
        timed(tr, "shard.ShardedSolver.solve", [&] { solver.solve(b, x); }));
  }
  return median(secs);
}

}  // namespace perfbench
