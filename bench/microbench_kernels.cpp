// google-benchmark microbenchmarks for the sparse/smoothing kernels that
// dominate the solvers' inner loops.

#include <benchmark/benchmark.h>

#include <map>

#include "amg/hierarchy.hpp"
#include "backend/backend.hpp"
#include "mesh/problems.hpp"
#include "smoothers/smoother.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sellcs.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

const CsrMatrix& matrix27(int n) {
  static std::map<int, CsrMatrix> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_laplace_27pt(n).a).first;
  }
  return it->second;
}

void BM_Spmv(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  Rng rng(1);
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), rng);
  Vector y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv)->Arg(10)->Arg(16)->Arg(24);

void BM_SpmvTranspose(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  Rng rng(2);
  const Vector x = random_vector(static_cast<std::size_t>(a.rows()), rng);
  Vector y;
  for (auto _ : state) {
    a.spmv_transpose(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvTranspose)->Arg(10)->Arg(16);

void BM_Residual(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  Rng rng(3);
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), rng);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), rng);
  Vector r(b.size());
  for (auto _ : state) {
    a.residual(b, x, r);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Residual)->Arg(10)->Arg(16);

void BM_SellSpmv(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  const SellMatrix s =
      SellMatrix::from_csr(a, static_cast<Index>(state.range(1)), 256);
  Rng rng(1);
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), rng);
  Vector y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    scalar_backend().sell_spmv(s, x, y, /*parallel=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SellSpmv)
    ->Args({10, 8})
    ->Args({16, 8})
    ->Args({24, 8})
    ->Args({16, 4})
    ->Args({16, 16});

void BM_FusedDiagSweepCsr(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  Rng rng(6);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), rng);
  const Vector d = random_vector(static_cast<std::size_t>(a.rows()), rng, 0.1,
                                 1.0);
  Vector x(b.size(), 0.0), xo(b.size());
  for (auto _ : state) {
    scalar_backend().csr_diag_sweep(a, d, b, x, xo, /*parallel=*/false);
    x.swap(xo);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_FusedDiagSweepCsr)->Arg(10)->Arg(16)->Arg(24);

void BM_FusedDiagSweepSell(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  const SellMatrix s =
      SellMatrix::from_csr(a, static_cast<Index>(state.range(1)), 256);
  Rng rng(6);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), rng);
  const Vector d = random_vector(static_cast<std::size_t>(a.rows()), rng, 0.1,
                                 1.0);
  Vector x(b.size(), 0.0), xo(b.size());
  for (auto _ : state) {
    scalar_backend().sell_diag_sweep(s, d, b, x, xo, /*parallel=*/false);
    x.swap(xo);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_FusedDiagSweepSell)
    ->Args({10, 8})
    ->Args({16, 8})
    ->Args({24, 8})
    ->Args({16, 16});

// Per-backend SELL kernels (DESIGN.md §15). Second arg selects the backend;
// runs on hosts without the ISA are skipped, mirroring the dispatcher's
// fallback. Bandwidth counts one matrix pass (values + column metadata, via
// sell_pass_bytes) plus the vector traffic; FLOPs are the 2·nnz multiply-
// accumulates.
void BM_BackendSellSpmv(benchmark::State& state) {
  const auto kind = static_cast<BackendKind>(state.range(1));
  if (!backend_supported(kind)) {
    state.SkipWithError("backend not supported on this host");
    return;
  }
  const KernelBackend& be = backend_for(kind);
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  const SellMatrix s = SellMatrix::from_csr(a, 8, 64);
  Rng rng(1);
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), rng);
  Vector y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    be.sell_spmv(s, x, y, /*parallel=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
  const double bytes = static_cast<double>(sell_pass_bytes(s)) +
                       16.0 * static_cast<double>(a.rows());
  state.counters["GB/s"] =
      benchmark::Counter(bytes, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  state.counters["GFLOP/s"] =
      benchmark::Counter(2.0 * static_cast<double>(a.nnz()),
                         benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BackendSellSpmv)
    ->Args({16, static_cast<int>(BackendKind::kScalar)})
    ->Args({16, static_cast<int>(BackendKind::kAvx2)})
    ->Args({16, static_cast<int>(BackendKind::kAvx512)})
    ->Args({24, static_cast<int>(BackendKind::kScalar)})
    ->Args({24, static_cast<int>(BackendKind::kAvx2)})
    ->Args({24, static_cast<int>(BackendKind::kAvx512)});

void BM_BackendSellSweep(benchmark::State& state) {
  const auto kind = static_cast<BackendKind>(state.range(1));
  if (!backend_supported(kind)) {
    state.SkipWithError("backend not supported on this host");
    return;
  }
  const KernelBackend& be = backend_for(kind);
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  const SellMatrix s = SellMatrix::from_csr(a, 8, 64);
  Rng rng(6);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), rng);
  const Vector d = random_vector(static_cast<std::size_t>(a.rows()), rng, 0.1,
                                 1.0);
  Vector x(b.size(), 0.0), xo(b.size());
  for (auto _ : state) {
    be.sell_diag_sweep(s, d, b, x, xo, /*parallel=*/false);
    x.swap(xo);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
  const double bytes = static_cast<double>(sell_pass_bytes(s)) +
                       32.0 * static_cast<double>(a.rows());
  state.counters["GB/s"] =
      benchmark::Counter(bytes, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(a.nnz()) + 2.0 * static_cast<double>(a.rows()),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BackendSellSweep)
    ->Args({16, static_cast<int>(BackendKind::kScalar)})
    ->Args({16, static_cast<int>(BackendKind::kAvx2)})
    ->Args({16, static_cast<int>(BackendKind::kAvx512)})
    ->Args({24, static_cast<int>(BackendKind::kScalar)})
    ->Args({24, static_cast<int>(BackendKind::kAvx2)})
    ->Args({24, static_cast<int>(BackendKind::kAvx512)});

void BM_SellConvert(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SellMatrix s = SellMatrix::from_csr(a, 8, 256);
    benchmark::DoNotOptimize(s.stored_entries());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SellConvert)->Arg(16)->Arg(24);

void BM_SmootherSweep(benchmark::State& state) {
  const CsrMatrix& a = matrix27(12);
  SmootherOptions so;
  so.type = static_cast<SmootherType>(state.range(0));
  so.num_blocks = 8;
  const Smoother sm(a, so);
  Rng rng(4);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), rng);
  Vector x(b.size(), 0.0);
  for (auto _ : state) {
    sm.sweep(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SmootherSweep)
    ->Arg(static_cast<int>(SmootherType::kWeightedJacobi))
    ->Arg(static_cast<int>(SmootherType::kL1Jacobi))
    ->Arg(static_cast<int>(SmootherType::kHybridJGS))
    ->Arg(static_cast<int>(SmootherType::kAsyncGS));

void BM_SpGemmMultiply(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    CsrMatrix aa = multiply(a, a, threads);
    benchmark::DoNotOptimize(aa.nnz());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpGemmMultiply)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({24, 1})
    ->Args({24, 4});

void BM_Transpose(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    CsrMatrix at = a.transpose(threads);
    benchmark::DoNotOptimize(at.nnz());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Transpose)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({24, 1})
    ->Args({24, 4});

void BM_SpGemmGalerkin(benchmark::State& state) {
  const CsrMatrix& a = matrix27(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  const CsrMatrix s = strength_matrix(a, 0.25);
  const Splitting split = coarsen_parallel(s, CoarsenParams{});
  const CsrMatrix p = interp_classical_modified(a, s, split);
  for (auto _ : state) {
    CsrMatrix rap = galerkin_product(a, p, threads);
    benchmark::DoNotOptimize(rap.nnz());
  }
}
BENCHMARK(BM_SpGemmGalerkin)
    ->Args({8, 1})
    ->Args({12, 1})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4});

void BM_HierarchySetup(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Problem prob = make_laplace_27pt(static_cast<Index>(state.range(0)));
    state.ResumeTiming();
    Hierarchy h = Hierarchy::build(std::move(prob.a), {});
    benchmark::DoNotOptimize(h.num_levels());
  }
}
BENCHMARK(BM_HierarchySetup)->Arg(8)->Arg(12);

}  // namespace
}  // namespace asyncmg

BENCHMARK_MAIN();
