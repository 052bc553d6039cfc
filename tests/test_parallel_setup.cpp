// Determinism and equivalence tests for the threaded AMG setup kernels:
// every parallel kernel must return a bit-identical matrix (same row_ptr,
// same col_idx, same values) for every thread count, because each output
// row is computed entirely on one thread with a fixed accumulation order.
// The fused RAP is additionally checked against the explicit
// P^T * (A * P) materialization chain.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "amg/hierarchy.hpp"
#include "amg/interp.hpp"
#include "amg/strength.hpp"
#include "backend/backend.hpp"
#include "mesh/problems.hpp"
#include "sparse/csr.hpp"
#include "sparse/parallel.hpp"
#include "sparse/spgemm.hpp"
#include "util/rng.hpp"
#include "util/thread_context.hpp"

namespace asyncmg {
namespace {

// Thread counts exercised everywhere; 8 oversubscribes small machines on
// purpose (correctness must not depend on how many cores actually exist).
const std::vector<int> kThreadCounts = {1, 2, 8};

void expect_identical(const CsrMatrix& a, const CsrMatrix& b,
                      const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  const auto arp = a.row_ptr(), brp = b.row_ptr();
  const auto aci = a.col_idx(), bci = b.col_idx();
  const auto av = a.values(), bv = b.values();
  for (std::size_t i = 0; i <= static_cast<std::size_t>(a.rows()); ++i) {
    ASSERT_EQ(arp[i], brp[i]) << what << ": row_ptr[" << i << "]";
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(a.nnz()); ++k) {
    ASSERT_EQ(aci[k], bci[k]) << what << ": col_idx[" << k << "]";
    ASSERT_EQ(av[k], bv[k]) << what << ": values[" << k << "]";
  }
}

void expect_values_near(const CsrMatrix& a, const CsrMatrix& b, double tol,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  const auto aci = a.col_idx(), bci = b.col_idx();
  const auto av = a.values(), bv = b.values();
  for (std::size_t k = 0; k < static_cast<std::size_t>(a.nnz()); ++k) {
    ASSERT_EQ(aci[k], bci[k]) << what << ": col_idx[" << k << "]";
    ASSERT_NEAR(av[k], bv[k], tol) << what << ": values[" << k << "]";
  }
}

// 4096 rows: above kSetupSerialCutoff, so the parallel paths actually run.
CsrMatrix big_laplacian() { return make_laplace_27pt(16).a; }

TEST(ParallelSpGemm, MultiplyIdenticalAcrossThreadCounts) {
  const CsrMatrix a = big_laplacian();
  const CsrMatrix ref = multiply(a, a, 1);
  for (int nt : kThreadCounts) {
    expect_identical(ref, multiply(a, a, nt), "A*A");
  }
}

TEST(ParallelSpGemm, AddIdenticalAcrossThreadCounts) {
  const CsrMatrix a = big_laplacian();
  const CsrMatrix b = multiply(a, a, 1);
  const CsrMatrix ref = add(a, b, 2.0, -0.5, 1);
  for (int nt : kThreadCounts) {
    expect_identical(ref, add(a, b, 2.0, -0.5, nt), "2A - 0.5A^2");
  }
}

TEST(ParallelTranspose, IdenticalAcrossThreadCounts) {
  const CsrMatrix a = big_laplacian();
  // Rectangular case too: an interpolation operator.
  const CsrMatrix s = strength_matrix(a, 0.25);
  const Splitting split = coarsen_parallel(s, CoarsenParams{});
  const CsrMatrix p = interp_direct(a, s, split, 1);
  const CsrMatrix at_ref = a.transpose(1);
  const CsrMatrix pt_ref = p.transpose(1);
  for (int nt : kThreadCounts) {
    expect_identical(at_ref, a.transpose(nt), "A^T");
    expect_identical(pt_ref, p.transpose(nt), "P^T");
  }
}

TEST(ParallelStrength, IdenticalAcrossThreadCounts) {
  const CsrMatrix a = big_laplacian();
  const CsrMatrix ref = strength_matrix(a, 0.25, StrengthNorm::kNegative, 1, 1);
  for (int nt : kThreadCounts) {
    expect_identical(ref,
                     strength_matrix(a, 0.25, StrengthNorm::kNegative, 1, nt),
                     "S");
  }
  const CsrMatrix s2_ref = strength_distance2(ref, 1);
  for (int nt : kThreadCounts) {
    expect_identical(s2_ref, strength_distance2(ref, nt), "S2");
  }
}

TEST(ParallelInterp, IdenticalAcrossThreadCounts) {
  const CsrMatrix a = big_laplacian();
  const CsrMatrix s = strength_matrix(a, 0.25);
  const Splitting split = coarsen_parallel(s, CoarsenParams{});
  const CsrMatrix pd_ref = interp_direct(a, s, split, 1);
  const CsrMatrix pc_ref = interp_classical_modified(a, s, split, 1);
  const CsrMatrix pm_ref = interp_multipass(a, s, split, 1);
  const CsrMatrix pt_ref = truncate_interpolation(pc_ref, 0.2, 1);
  for (int nt : kThreadCounts) {
    expect_identical(pd_ref, interp_direct(a, s, split, nt), "P direct");
    expect_identical(pc_ref, interp_classical_modified(a, s, split, nt),
                     "P classical");
    expect_identical(pm_ref, interp_multipass(a, s, split, nt), "P multipass");
    expect_identical(pt_ref, truncate_interpolation(pc_ref, 0.2, nt),
                     "P truncated");
  }
}

TEST(FusedRap, MatchesExplicitChain) {
  const CsrMatrix a = big_laplacian();
  const CsrMatrix s = strength_matrix(a, 0.25);
  const Splitting split = coarsen_parallel(s, CoarsenParams{});
  const CsrMatrix p = interp_classical_modified(a, s, split, 1);

  // Explicit three-matrix chain the fused kernel replaces.
  const CsrMatrix chain = multiply(p.transpose(1), multiply(a, p, 1), 1);
  for (int nt : kThreadCounts) {
    const CsrMatrix fused = galerkin_product(a, p, nt);
    // Same sparsity structure; values differ only by summation order.
    expect_values_near(chain, fused, 1e-12, "RAP");
  }
  // And the fused kernel itself is bit-identical across thread counts.
  const CsrMatrix ref = galerkin_product(a, p, 1);
  for (int nt : kThreadCounts) {
    expect_identical(ref, galerkin_product(a, p, nt), "fused RAP");
  }
}

TEST(ParallelSolveKernels, MatchSerialSpmv) {
  const CsrMatrix a = big_laplacian();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  Rng rng(3);
  Vector x(n), b(n), y0(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
    y0[i] = rng.uniform(-1.0, 1.0);
  }

  // The backend's CSR entry points with parallel = true split rows across
  // the OpenMP team; the serial CsrMatrix kernels are their oracle.
  const KernelBackend& be = scalar_backend();
  Vector y_ref = y0, y_omp = y0;
  a.spmv(x, y_ref);
  be.csr_spmv(a, x, y_omp, /*parallel=*/true);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y_ref[i], y_omp[i]);

  Vector r_ref, r_omp;
  a.residual(b, x, r_ref);
  be.csr_residual(a, b, x, r_omp, /*parallel=*/true);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(r_ref[i], r_omp[i]);

  y_ref = y0;
  y_omp = y0;
  Vector ax(n);
  a.spmv(x, ax);
  for (std::size_t i = 0; i < n; ++i) y_ref[i] += 0.5 * ax[i];
  be.csr_spmv_add(a, x, y_omp, 0.5, /*parallel=*/true);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(y_ref[i], y_omp[i], 1e-14);

  // On a pool worker the parallel kernels must still produce the same
  // values (they just stay serial to respect the pool's thread budget).
  set_this_thread_pool_worker(true);
  Vector r_pool;
  be.csr_residual(a, b, x, r_pool, /*parallel=*/true);
  set_this_thread_pool_worker(false);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(r_ref[i], r_pool[i]);
}

TEST(PrefixSum, ThrowsOnIndexOverflow) {
  // Three rows of ~1.2e9 entries each: the total (3.6e9) exceeds int32.
  const std::vector<std::size_t> counts(3, 1'200'000'000u);
  std::vector<Index> row_ptr;
  EXPECT_THROW(prefix_sum_row_counts(counts, row_ptr, "test"),
               std::overflow_error);
  // A sum that fits is accepted and produces an inclusive scan.
  const std::vector<std::size_t> ok = {2, 0, 5};
  const std::size_t total = prefix_sum_row_counts(ok, row_ptr, "test");
  EXPECT_EQ(total, 7u);
  ASSERT_EQ(row_ptr.size(), 4u);
  EXPECT_EQ(row_ptr[0], 0);
  EXPECT_EQ(row_ptr[1], 2);
  EXPECT_EQ(row_ptr[2], 2);
  EXPECT_EQ(row_ptr[3], 7);
}

void expect_hierarchy_identical(const Hierarchy& ref, const Hierarchy& h) {
  ASSERT_EQ(ref.num_levels(), h.num_levels());
  EXPECT_DOUBLE_EQ(ref.operator_complexity(), h.operator_complexity());
  for (std::size_t k = 0; k < ref.num_levels(); ++k) {
    expect_identical(ref.matrix(k), h.matrix(k), "A_k");
    if (k + 1 < ref.num_levels()) {
      expect_identical(ref.interpolation(k), h.interpolation(k), "P_k");
    }
  }
}

TEST(ParallelHierarchy, LaplaceIdenticalAcrossSetupThreads) {
  const CsrMatrix a = big_laplacian();
  AmgOptions opts;
  opts.num_aggressive_levels = 1;  // exercise multipass + distance-2 too
  // Bitwise determinism is defined on the fp64 setup; pin the policy so the
  // values() reads in expect_identical stay valid under ASYNCMG_PRECISION.
  opts.precision = PrecisionPolicy{};
  opts.setup_threads = 1;
  const Hierarchy ref = Hierarchy::build(a, opts);
  ASSERT_GE(ref.num_levels(), 2u);
  for (int nt : kThreadCounts) {
    opts.setup_threads = nt;
    expect_hierarchy_identical(ref, Hierarchy::build(a, opts));
  }
}

TEST(ParallelHierarchy, ElasticityIdenticalAcrossSetupThreads) {
  // 3072 dofs: above the serial cutoff on the finest level.
  const CsrMatrix a = make_elasticity_beam(16, 8, 8).a;
  AmgOptions opts;
  opts.strength_norm = StrengthNorm::kAbsolute;
  opts.num_functions = 3;
  opts.precision = PrecisionPolicy{};
  opts.setup_threads = 1;
  const Hierarchy ref = Hierarchy::build(a, opts);
  ASSERT_GE(ref.num_levels(), 2u);
  for (int nt : kThreadCounts) {
    opts.setup_threads = nt;
    expect_hierarchy_identical(ref, Hierarchy::build(a, opts));
  }
}

}  // namespace
}  // namespace asyncmg
