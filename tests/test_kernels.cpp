// Solve-phase kernel engine properties: the scalar backend's SELL-C-sigma
// and fused CSR kernels are bit-identical to the serial CsrMatrix / two-pass
// references on random matrices and at every thread count (the SIMD
// backends are checked against the scalar backend in test_backend.cpp); the
// workspace overloads reproduce the allocating forms exactly; a whole
// multigrid cycle matches the test-only reference cycle (tests/oracle)
// bitwise; and the cycle loop performs zero heap allocations (counting
// global operator new).

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <tuple>

#include "backend/backend.hpp"
#include "mesh/problems.hpp"
#include "multigrid/mult.hpp"
#include "multigrid/pcg.hpp"
#include "multigrid/setup.hpp"
#include "oracle/reference_cycle.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sellcs.hpp"
#include "sparse/vec.hpp"
#include "util/partition.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------
// Counting allocator: global operator new/delete instrumented with an
// atomic counter so the zero-allocation contract of the cycle loop is a
// hard assertion, not a claim. Counting is enabled only inside the
// measurement window; the hooks otherwise just forward to malloc/free
// (which sanitizers still intercept).
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace asyncmg {
namespace {

void expect_bitwise(const Vector& ref, const Vector& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << what << " differs at " << i;
  }
}

CsrMatrix random_csr(Index rows, Index cols, double fill, Rng& rng) {
  std::vector<Triplet> trips;
  const auto target = static_cast<std::size_t>(
      fill * static_cast<double>(rows) * static_cast<double>(cols));
  for (std::size_t k = 0; k < target; ++k) {
    Triplet t;
    t.row = static_cast<Index>(rng.uniform_int(0, rows - 1));
    t.col = static_cast<Index>(rng.uniform_int(0, cols - 1));
    t.value = rng.uniform(-2.0, 2.0);
    trips.push_back(t);
  }
  return CsrMatrix::from_triplets(rows, cols, std::move(trips));
}

// ---------------------------------------------------------------------
// SELL-C-sigma structure and bitwise kernel identity: scalar backend vs
// the serial CsrMatrix kernels.
// ---------------------------------------------------------------------

TEST(SellFormat, PermIsValidAndUniformRowsKeepIdentity) {
  // Uniform row lengths (a diagonal matrix) with rows a multiple of C:
  // stable sort must keep the identity permutation and produce no padding.
  std::vector<Triplet> trips;
  for (Index i = 0; i < 64; ++i) trips.push_back({i, i, 1.0 + i});
  const CsrMatrix d64 = CsrMatrix::from_triplets(64, 64, std::move(trips));
  const SellMatrix sd64 = SellMatrix::from_csr(d64, 8, 64);
  EXPECT_EQ(sd64.padded_entries(), 0u);
  for (Index i = 0; i < 64; ++i) EXPECT_EQ(sd64.perm()[i], i);

  // Rows not a multiple of C: only the tail chunk's pad slots add padding
  // (one lane-column per pad slot here), and they carry the -1 sentinel.
  const Index n = 70;
  trips.clear();
  for (Index i = 0; i < n; ++i) trips.push_back({i, i, 1.0 + i});
  const CsrMatrix d = CsrMatrix::from_triplets(n, n, std::move(trips));
  const SellMatrix sd = SellMatrix::from_csr(d, 8, 64);
  EXPECT_EQ(sd.padded_entries(), sd.perm().size() - static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) EXPECT_EQ(sd.perm()[i], i);
  for (std::size_t s = static_cast<std::size_t>(n); s < sd.perm().size(); ++s) {
    EXPECT_EQ(sd.perm()[s], -1);
  }

  // Ragged random matrix: perm must still be a permutation of all rows.
  Rng rng(7);
  const CsrMatrix a = random_csr(101, 101, 0.08, rng);
  const SellMatrix sa = SellMatrix::from_csr(a, 8, 16);
  std::vector<int> seen(101, 0);
  for (Index p : sa.perm()) {
    if (p >= 0) seen[static_cast<std::size_t>(p)]++;
  }
  for (int c : seen) EXPECT_EQ(c, 1);
  EXPECT_EQ(sa.nnz(), a.nnz());
}

class SellKernelIdentity
    : public ::testing::TestWithParam<std::tuple<Index, Index>> {};

TEST_P(SellKernelIdentity, MatchesCsrBitwise) {
  const auto [chunk, sigma] = GetParam();
  for (std::uint64_t seed : {11u, 52u}) {
    Rng rng(seed);
    const Index n = static_cast<Index>(rng.uniform_int(60, 220));
    // Low fill leaves deliberate empty rows; their outputs must still be
    // written (y = 0, r = b, x_out = x_in + d.*b).
    const CsrMatrix a = random_csr(n, n, 0.05, rng);
    const SellMatrix s = SellMatrix::from_csr(a, chunk, sigma);
    const auto un = static_cast<std::size_t>(n);
    const Vector x = random_vector(un, rng);
    const Vector b = random_vector(un, rng);
    const Vector d = random_vector(un, rng, 0.1, 1.0);
    const KernelBackend& be = scalar_backend();

    Vector ref, got;
    a.spmv(x, ref);
    be.sell_spmv(s, x, got, /*parallel=*/false);
    expect_bitwise(ref, got, "spmv");

    a.residual(b, x, ref);
    be.sell_residual(s, b, x, got, /*parallel=*/false);
    expect_bitwise(ref, got, "residual");

    // sell_diag_sweep == residual then x_out = x_in + d .* r.
    Vector r;
    a.residual(b, x, r);
    ref.resize(un);
    for (std::size_t i = 0; i < un; ++i) ref[i] = x[i] + d[i] * r[i];
    be.sell_diag_sweep(s, d, b, x, got, /*parallel=*/false);
    expect_bitwise(ref, got, "sell_diag_sweep");

    // sell_sub_spmv == spmv then tmp = r - tmp (spmv accumulation order).
    a.spmv(x, ref);
    for (std::size_t i = 0; i < un; ++i) ref[i] = b[i] - ref[i];
    be.sell_sub_spmv(s, b, x, got, /*parallel=*/false);
    expect_bitwise(ref, got, "sell_sub_spmv");
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkSigma, SellKernelIdentity,
    ::testing::Values(std::tuple<Index, Index>{4, 4},
                      std::tuple<Index, Index>{8, 1},   // sigma clamps to C
                      std::tuple<Index, Index>{8, 32},
                      std::tuple<Index, Index>{16, 1024},  // full-matrix sort
                      std::tuple<Index, Index>{64, 64}),
    [](const ::testing::TestParamInfo<std::tuple<Index, Index>>& i) {
      std::string name = "C";
      name += std::to_string(std::get<0>(i.param));
      name += "_S";
      name += std::to_string(std::get<1>(i.param));
      return name;
    });

// ---------------------------------------------------------------------
// Backend CSR fused kernels vs their two-pass references, serial and
// parallel, plus the parallel SELL kernels, at several thread counts. The
// large matrix clears the solve-kernel OpenMP cutoff so the parallel paths
// actually run.
// ---------------------------------------------------------------------

TEST(FusedKernels, BitIdenticalAtEveryThreadCount) {
  const int max_threads = omp_get_max_threads();
  for (Index n : {300, 3000}) {
    Rng rng(19);
    const CsrMatrix a = random_csr(n, n, n > 1000 ? 0.004 : 0.05, rng);
    const SellMatrix s = SellMatrix::from_csr(a, 8, 256);
    const auto un = static_cast<std::size_t>(n);
    const Vector x = random_vector(un, rng);
    const Vector b = random_vector(un, rng);
    const Vector d = random_vector(un, rng, 0.1, 1.0);

    // Serial references (the pre-engine arithmetic).
    Vector r_ref;
    a.residual(b, x, r_ref);
    const double nsq_ref = dot(r_ref, r_ref);
    Vector sweep_ref(un);
    for (std::size_t i = 0; i < un; ++i) {
      sweep_ref[i] = x[i] + d[i] * r_ref[i];
    }
    Vector sub_ref;
    a.spmv(x, sub_ref);
    for (std::size_t i = 0; i < un; ++i) sub_ref[i] = b[i] - sub_ref[i];

    const KernelBackend& be = scalar_backend();
    Vector got, r_got;
    be.csr_diag_sweep(a, d, b, x, got, /*parallel=*/false);
    expect_bitwise(sweep_ref, got, "csr_diag_sweep serial");
    be.csr_sub_spmv(a, b, x, got, /*parallel=*/false);
    expect_bitwise(sub_ref, got, "csr_sub_spmv serial");
    EXPECT_EQ(nsq_ref, be.csr_residual_norm_sq(a, b, x, r_got, false));
    expect_bitwise(r_ref, r_got, "csr_residual_norm_sq serial r");

    for (int nt : {1, 2, 4}) {
      if (nt > max_threads) continue;
      omp_set_num_threads(nt);
      be.csr_diag_sweep(a, d, b, x, got, /*parallel=*/true);
      expect_bitwise(sweep_ref, got, "csr_diag_sweep parallel");
      be.csr_sub_spmv(a, b, x, got, /*parallel=*/true);
      expect_bitwise(sub_ref, got, "csr_sub_spmv parallel");
      EXPECT_EQ(nsq_ref, be.csr_residual_norm_sq(a, b, x, r_got, true));
      expect_bitwise(r_ref, r_got, "csr_residual_norm_sq parallel r");

      be.sell_spmv(s, x, got, /*parallel=*/true);
      Vector tmp;
      a.spmv(x, tmp);
      expect_bitwise(tmp, got, "sell_spmv parallel");
      be.sell_residual(s, b, x, got, /*parallel=*/true);
      expect_bitwise(r_ref, got, "sell_residual parallel");
      be.sell_diag_sweep(s, d, b, x, got, /*parallel=*/true);
      expect_bitwise(sweep_ref, got, "sell_diag_sweep parallel");
      be.sell_sub_spmv(s, b, x, got, /*parallel=*/true);
      expect_bitwise(sub_ref, got, "sell_sub_spmv parallel");
    }
    omp_set_num_threads(max_threads);
  }
}

// ---------------------------------------------------------------------
// Smoother workspace overloads: bitwise equal to the allocating forms for
// every smoother family (Jacobi fused path, hybrid block substitution,
// triangular transpose, symmetrized application).
// ---------------------------------------------------------------------

class SmootherWsIdentity : public ::testing::TestWithParam<SmootherType> {};

TEST_P(SmootherWsIdentity, MatchesAllocatingForms) {
  const SmootherType st = GetParam();
  Problem prob = make_laplace_27pt(8);
  SmootherOptions so;
  so.type = st;
  so.omega = 0.9;
  so.num_blocks = 3;
  const Smoother sm(prob.a, so);
  Rng rng(23);
  const auto n = static_cast<std::size_t>(prob.a.rows());
  const Vector b = random_vector(n, rng);
  const Vector x0 = random_vector(n, rng);

  Vector x_ref = x0, x_ws = x0;
  Vector s1, s2, s3;
  sm.sweep(b, x_ref);
  sm.sweep_ws(b, x_ws, s1);
  expect_bitwise(x_ref, x_ws, "sweep_ws");

  x_ref = x0;
  x_ws = x0;
  sm.sweep_transpose(b, x_ref);
  sm.sweep_transpose_ws(b, x_ws, s1, s2);
  expect_bitwise(x_ref, x_ws, "sweep_transpose_ws");

  Vector e_ref, e_ws;
  sm.smooth_zero(b, e_ref, 3);
  sm.smooth_zero_ws(b, e_ws, 3, s1);
  expect_bitwise(e_ref, e_ws, "smooth_zero_ws");

  sm.apply_symmetrized(b, e_ref);
  sm.apply_symmetrized_ws(b, e_ws, s1, s2, s3);
  expect_bitwise(e_ref, e_ws, "apply_symmetrized_ws");
}

INSTANTIATE_TEST_SUITE_P(Types, SmootherWsIdentity,
                         ::testing::Values(SmootherType::kWeightedJacobi,
                                           SmootherType::kL1Jacobi,
                                           SmootherType::kHybridJGS,
                                           SmootherType::kL1HybridJGS),
                         [](const ::testing::TestParamInfo<SmootherType>& i) {
                           std::string name = smoother_name(i.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------
// Whole-cycle identity: MultiplicativeMg (fused kernels, SELL levels,
// workspace buffers) must match the test-only reference cycle bitwise,
// cycle for cycle, for every cycle shape and thread count.
// ---------------------------------------------------------------------

struct CycleConfig {
  SmootherType smoother;
  bool symmetric;
  int pre, post, gamma;
  const char* name;
};

class EngineCycleIdentity : public ::testing::TestWithParam<CycleConfig> {};

TEST_P(EngineCycleIdentity, FusedMatchesReferenceBitwise) {
  const CycleConfig cfg = GetParam();
  Problem prob = make_laplace_27pt(13);  // 2197 rows: OpenMP paths engage
  MgOptions mo;
  mo.smoother.type = cfg.smoother;
  mo.smoother.omega = 0.9;
  mo.smoother.num_blocks = 3;
  mo.engine.sell_min_rows = 1;  // convert every eligible level
  MgSetup s(std::move(prob.a), mo);
  if (cfg.smoother == SmootherType::kWeightedJacobi ||
      cfg.smoother == SmootherType::kL1Jacobi) {
    EXPECT_NE(s.sell(0), nullptr) << "finest level should be SELL";
    EXPECT_EQ(s.sell(s.num_levels() - 1), nullptr) << "coarsest stays CSR";
  } else {
    EXPECT_EQ(s.sell(0), nullptr) << "triangular smoothers stay CSR";
  }

  Rng rng(31);
  const Vector b = random_vector(static_cast<std::size_t>(s.a(0).rows()), rng);

  const oracle::CycleShape shape{cfg.symmetric, cfg.pre, cfg.post, cfg.gamma};

  // Baseline: reference cycle, single thread.
  const int max_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  oracle::ReferenceLevels levels;
  Vector x_ref(b.size(), 0.0);
  for (int t = 0; t < 3; ++t) {
    oracle::reference_cycle(s, b, x_ref, levels, shape);
  }

  for (int nt : {1, 4}) {
    if (nt > max_threads) continue;
    omp_set_num_threads(nt);
    Vector x(b.size(), 0.0);
    for (int t = 0; t < 3; ++t) {
      oracle::reference_cycle(s, b, x, levels, shape);
    }
    expect_bitwise(x_ref, x, "reference cycle");

    MultiplicativeMg mg(s, cfg.symmetric, cfg.pre, cfg.post, cfg.gamma);
    x.assign(b.size(), 0.0);
    for (int t = 0; t < 3; ++t) mg.cycle(b, x);
    expect_bitwise(x_ref, x, "fused cycle vs reference");
  }

  // solve(): the fused residual-norm must reproduce the reference history
  // bitwise (csr_residual_norm_sq == residual + dot identity).
  omp_set_num_threads(max_threads);
  MultiplicativeMg a_mg(s, cfg.symmetric, cfg.pre, cfg.post, cfg.gamma);
  Vector xa(b.size(), 0.0), xb(b.size(), 0.0);
  const SolveStats sa = a_mg.solve(b, xa, 5);
  const SolveStats sb = oracle::reference_solve(s, b, xb, 5, 0.0, shape);
  ASSERT_EQ(sa.rel_res_history.size(), sb.rel_res_history.size());
  for (std::size_t i = 0; i < sa.rel_res_history.size(); ++i) {
    EXPECT_EQ(sa.rel_res_history[i], sb.rel_res_history[i]) << "history " << i;
  }
  expect_bitwise(xb, xa, "solve x");
}

// The zero-guess entry (PCG's preconditioner) skips cycle()'s residual
// pass but must be the same cycle: precondition(r, z) equals cycle(r, x)
// from x = 0, entry for entry, at every thread count -- also in place, with
// r and z in the cycle's own level-0 slots as pcg_solve keeps them.
TEST_P(EngineCycleIdentity, ZeroGuessEntryMatchesCycleFromZero) {
  const CycleConfig cfg = GetParam();
  Problem prob = make_laplace_27pt(13);
  MgOptions mo;
  mo.smoother.type = cfg.smoother;
  mo.smoother.omega = 0.9;
  mo.smoother.num_blocks = 3;
  mo.engine.sell_min_rows = 1;
  MgSetup s(std::move(prob.a), mo);
  Rng rng(41);
  const Vector r = random_vector(static_cast<std::size_t>(s.a(0).rows()), rng);

  const int max_threads = omp_get_max_threads();
  for (int nt : {1, 4}) {
    if (nt > max_threads) continue;
    omp_set_num_threads(nt);
    MultiplicativeMg mg(s, cfg.symmetric, cfg.pre, cfg.post, cfg.gamma);
    Vector x(r.size(), 0.0);
    mg.cycle(r, x);
    Vector z;
    mg.precondition(r, z);
    expect_bitwise(x, z, "precondition vs cycle from zero");
    CycleWorkspace& ws = mg.workspace();
    ws.r(0) = r;
    mg.precondition(ws.r(0), ws.e(0));
    expect_bitwise(x, ws.e(0), "in-place precondition vs cycle from zero");
    expect_bitwise(r, ws.r(0), "precondition left r unchanged");
  }
  omp_set_num_threads(max_threads);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineCycleIdentity,
    ::testing::Values(
        CycleConfig{SmootherType::kWeightedJacobi, false, 1, 1, 1, "V11"},
        CycleConfig{SmootherType::kWeightedJacobi, true, 1, 1, 1, "SymV11"},
        CycleConfig{SmootherType::kWeightedJacobi, false, 0, 2, 1, "V02"},
        CycleConfig{SmootherType::kWeightedJacobi, false, 1, 1, 2, "W11"},
        CycleConfig{SmootherType::kL1Jacobi, false, 2, 1, 1, "L1V21"},
        CycleConfig{SmootherType::kL1HybridJGS, false, 1, 1, 1, "JGSV11"},
        CycleConfig{SmootherType::kL1HybridJGS, true, 1, 1, 1, "JGSSymV11"}),
    [](const ::testing::TestParamInfo<CycleConfig>& i) {
      return i.param.name;
    });

// ---------------------------------------------------------------------
// PCG workspace overload: identical iterates and history.
// ---------------------------------------------------------------------

TEST(PcgWorkspace, MatchesAllocatingOverload) {
  Problem prob = make_laplace_7pt(10);
  MgOptions mo;
  mo.engine.sell_min_rows = 1;
  MgSetup s(std::move(prob.a), mo);
  Rng rng(37);
  const Vector b = random_vector(static_cast<std::size_t>(s.a(0).rows()), rng);
  PcgOptions po;
  po.max_iterations = 12;
  po.tol = 0.0;
  const Preconditioner pre =
      make_mg_preconditioner(s, MgPreconditionerKind::kSymmetricVCycle);

  Vector xa(b.size(), 0.0), xb(b.size(), 0.0);
  const SolveStats sa = pcg_solve(s.a(0), b, xa, pre, po);
  PcgWorkspace ws;
  const SolveStats sb = pcg_solve(s.a(0), b, xb, pre, po, ws);
  ASSERT_EQ(sa.rel_res_history.size(), sb.rel_res_history.size());
  for (std::size_t i = 0; i < sa.rel_res_history.size(); ++i) {
    EXPECT_EQ(sa.rel_res_history[i], sb.rel_res_history[i]);
  }
  expect_bitwise(xa, xb, "pcg x");
}

// ---------------------------------------------------------------------
// nnz-balanced partitioning.
// ---------------------------------------------------------------------

TEST(NnzBalancedChunks, CoversContiguouslyAndBalances) {
  Rng rng(41);
  const CsrMatrix a = random_csr(400, 400, 0.03, rng);
  const std::span<const std::int32_t> prefix(a.row_ptr().data(),
                                             a.row_ptr().size());
  const auto total = static_cast<std::size_t>(a.nnz());
  std::size_t max_row = 0;
  for (Index i = 0; i < a.rows(); ++i) {
    max_row = std::max(max_row, static_cast<std::size_t>(a.row_ptr()[i + 1] -
                                                         a.row_ptr()[i]));
  }
  for (std::size_t parts : {1u, 3u, 7u, 16u}) {
    const std::vector<Range> chunks = nnz_balanced_chunks(prefix, parts);
    ASSERT_EQ(chunks.size(), parts);
    EXPECT_EQ(chunks.front().begin, 0u);
    EXPECT_EQ(chunks.back().end, static_cast<std::size_t>(a.rows()));
    for (std::size_t p = 0; p + 1 < parts; ++p) {
      EXPECT_EQ(chunks[p].end, chunks[p + 1].begin);
    }
    for (std::size_t p = 0; p < parts; ++p) {
      EXPECT_EQ(chunks[p], nnz_balanced_chunk(prefix, parts, p));
      const auto w = static_cast<std::size_t>(
          prefix[chunks[p].end] - prefix[chunks[p].begin]);
      // Each chunk's work is within one max-row of the ideal slice.
      EXPECT_LE(w, total / parts + max_row) << "parts=" << parts << " p=" << p;
    }
  }
}

TEST(NnzBalancedChunks, EmptyPrefixFallsBackToStatic) {
  // All-empty rows: weight gives no information, split must degrade to the
  // static partition instead of putting every row in one chunk.
  const std::vector<std::int32_t> prefix(101, 0);  // 100 rows, 0 nnz
  for (std::size_t parts : {1u, 4u}) {
    for (std::size_t p = 0; p < parts; ++p) {
      EXPECT_EQ(nnz_balanced_chunk(prefix, parts, p),
                static_chunk(100, parts, p));
    }
  }
}

// ---------------------------------------------------------------------
// Format heuristic.
// ---------------------------------------------------------------------

TEST(LevelPrefersSell, Heuristic) {
  KernelEngineOptions o;  // defaults: use_sell, min_rows = 4096
  EXPECT_TRUE(level_prefers_sell(o, 1 << 12, true, false));
  EXPECT_FALSE(level_prefers_sell(o, (1 << 12) - 1, true, false))
      << "small levels stay CSR";
  EXPECT_FALSE(level_prefers_sell(o, 1 << 20, false, false))
      << "triangular smoothers stay CSR";
  EXPECT_FALSE(level_prefers_sell(o, 1 << 20, true, true))
      << "coarsest (direct solve) stays CSR";
  o.use_sell = false;
  EXPECT_FALSE(level_prefers_sell(o, 1 << 20, true, false));
}

// ---------------------------------------------------------------------
// Zero-allocation cycle loop: after one warm-up cycle, N further cycles
// must not touch the heap at all (workspace arena + fused kernels +
// in-place smoother sweeps).
// ---------------------------------------------------------------------

TEST(Workspace, CycleLoopIsAllocationFree) {
  Problem prob = make_laplace_27pt(10);
  MgOptions mo;
  mo.engine.sell_min_rows = 1;  // SELL levels included in the window
  MgSetup s(std::move(prob.a), mo);
  Rng rng(43);
  const Vector b = random_vector(static_cast<std::size_t>(s.a(0).rows()), rng);
  MultiplicativeMg mg(s, /*symmetric=*/true);
  Vector x(b.size(), 0.0);
  mg.cycle(b, x);  // warm-up: workspace resizes settle here

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int t = 0; t < 10; ++t) mg.cycle(b, x);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "heap allocations inside the cycle loop";

  EXPECT_GT(mg.workspace().bytes(), 0u);
}

TEST(Workspace, PcgLoopIsAllocationFree) {
  Problem prob = make_laplace_7pt(10);
  MgOptions mo;
  MgSetup s(std::move(prob.a), mo);
  Rng rng(47);
  const Vector b = random_vector(static_cast<std::size_t>(s.a(0).rows()), rng);
  PcgOptions po;
  po.tol = 0.0;
  const Preconditioner pre =
      make_mg_preconditioner(s, MgPreconditionerKind::kSymmetricVCycle);
  Vector x(b.size(), 0.0);
  PcgWorkspace ws;
  po.max_iterations = 2;
  pcg_solve(s.a(0), b, x, pre, po, ws);  // warm-up

  x.assign(b.size(), 0.0);
  po.max_iterations = 8;
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  pcg_solve(s.a(0), b, x, pre, po, ws);
  g_count_allocs.store(false);
  // The stats history is reserved once up front; everything else in the
  // iteration must be allocation-free.
  EXPECT_LE(g_alloc_count.load(), 1u)
      << "heap allocations inside the PCG loop";
}

}  // namespace
}  // namespace asyncmg
