// Tests for the cycle drivers: multiplicative V(1,1), BPX, Multadd, AFACx,
// and the mathematical identities the paper states (Multadd with the
// symmetrized smoother == symmetric multiplicative V(1,1)-cycle).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "amg/precision.hpp"
#include "mesh/problems.hpp"
#include "multigrid/additive.hpp"
#include "multigrid/mult.hpp"
#include "multigrid/pcg.hpp"
#include "oracle/reference_additive.hpp"
#include "sparse/vec.hpp"
#include "util/partition.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

std::unique_ptr<MgSetup> make_setup(Index n, SmootherType st,
                                    double omega = 0.9, int aggressive = 0,
                                    bool pin_f64 = false) {
  Problem prob = make_laplace_7pt(n);
  MgOptions mo;
  mo.smoother.type = st;
  mo.smoother.omega = omega;
  mo.smoother.num_blocks = 4;
  mo.amg.num_aggressive_levels = aggressive;
  // Tight cross-scheme equivalence tests are fp64 identities; they pin the
  // policy so ASYNCMG_PRECISION=f32coarse runs do not loosen their bounds.
  if (pin_f64) mo.amg.precision = PrecisionPolicy{};
  return std::make_unique<MgSetup>(std::move(prob.a), mo);
}

Vector rhs_for(const MgSetup& s, std::uint64_t seed) {
  Rng rng(seed);
  return random_vector(static_cast<std::size_t>(s.a(0).rows()), rng);
}

TEST(Setup, BuildsInterpolantsAndRestrictions) {
  auto s = make_setup(8, SmootherType::kWeightedJacobi);
  ASSERT_GE(s->num_levels(), 2u);
  for (std::size_t k = 0; k + 1 < s->num_levels(); ++k) {
    EXPECT_EQ(s->p(k).rows(), s->a(k).rows());
    EXPECT_EQ(s->p(k).cols(), s->a(k + 1).rows());
    EXPECT_EQ(s->pbar(k).rows(), s->p(k).rows());
    EXPECT_EQ(s->pbar(k).cols(), s->p(k).cols());
    // r/rbar are exact transposes.
    EXPECT_TRUE(s->r(k).approx_equal(s->p(k).transpose(), 0.0));
    EXPECT_TRUE(s->rbar(k).approx_equal(s->pbar(k).transpose(), 0.0));
    // The smoothed interpolant is denser (or equal) than the plain one.
    EXPECT_GE(s->pbar(k).nnz(), s->p(k).nnz());
  }
  EXPECT_FALSE(s->coarse_solver().empty());
  EXPECT_EQ(s->grid_work().size(), s->num_levels());
}

TEST(Mult, GridSizeIndependentCycleCount) {
  // The defining multigrid property: cycles to 1e-8 should not grow with n.
  int cycles_small = 0, cycles_large = 0;
  {
    auto s = make_setup(8, SmootherType::kWeightedJacobi);
    Vector b = rhs_for(*s, 1), x(b.size(), 0.0);
    MultiplicativeMg mg(*s);
    cycles_small = mg.solve(b, x, 200, 1e-8).cycles;
  }
  {
    auto s = make_setup(16, SmootherType::kWeightedJacobi);
    Vector b = rhs_for(*s, 1), x(b.size(), 0.0);
    MultiplicativeMg mg(*s);
    cycles_large = mg.solve(b, x, 200, 1e-8).cycles;
  }
  EXPECT_LE(cycles_large, cycles_small + 15);
}

TEST(Mult, ResidualHistoryMonotoneOnLaplace) {
  auto s = make_setup(10, SmootherType::kWeightedJacobi);
  Vector b = rhs_for(*s, 2), x(b.size(), 0.0);
  MultiplicativeMg mg(*s);
  const SolveStats st = mg.solve(b, x, 25);
  for (std::size_t i = 1; i < st.rel_res_history.size(); ++i) {
    EXPECT_LT(st.rel_res_history[i], st.rel_res_history[i - 1]);
  }
}

class MultSmootherTest : public ::testing::TestWithParam<SmootherType> {};

TEST_P(MultSmootherTest, SolvesToTolerance) {
  auto s = make_setup(8, GetParam());
  Vector b = rhs_for(*s, 3), x(b.size(), 0.0);
  MultiplicativeMg mg(*s);
  const SolveStats st = mg.solve(b, x, 150, 1e-9);
  EXPECT_TRUE(st.converged) << smoother_name(GetParam()) << " rel res "
                            << st.final_rel_res();
}

INSTANTIATE_TEST_SUITE_P(
    AllSmoothers, MultSmootherTest,
    ::testing::Values(SmootherType::kWeightedJacobi, SmootherType::kL1Jacobi,
                      SmootherType::kHybridJGS, SmootherType::kL1HybridJGS,
                      SmootherType::kAsyncGS),
    [](const ::testing::TestParamInfo<SmootherType>& i) {
      switch (i.param) {
        case SmootherType::kWeightedJacobi: return "WJacobi";
        case SmootherType::kL1Jacobi: return "L1Jacobi";
        case SmootherType::kHybridJGS: return "HybridJGS";
        case SmootherType::kL1HybridJGS: return "L1HybridJGS";
        case SmootherType::kAsyncGS: return "AsyncGS";
      }
      return "unknown";
    });

// Section II-B1: with the symmetrized smoothing matrix as Lambda_k, Multadd
// is mathematically equivalent to the symmetric multiplicative V(1,1)-cycle.
TEST(Multadd, SymmetrizedLambdaEqualsSymmetricVCycle) {
  auto s = make_setup(8, SmootherType::kWeightedJacobi, 0.9, 0,
                      /*pin_f64=*/true);
  Vector b = rhs_for(*s, 4);

  Vector x_mult(b.size(), 0.0);
  MultiplicativeMg mult(*s, /*symmetric=*/true);
  mult.cycle(b, x_mult);

  Vector x_add(b.size(), 0.0);
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  ao.symmetrized_lambda = true;
  AdditiveMg multadd(*s, ao);
  multadd.cycle(b, x_add);

  double max_diff = 0.0, max_val = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(x_mult[i] - x_add[i]));
    max_val = std::max(max_val, std::abs(x_mult[i]));
  }
  EXPECT_LT(max_diff, 1e-10 * std::max(max_val, 1.0))
      << "Multadd(symmetrized) != symmetric V(1,1)";
}

// The equivalence must hold cycle after cycle, not just for the first one.
TEST(Multadd, SymmetrizedEquivalenceOverManyCycles) {
  auto s = make_setup(6, SmootherType::kWeightedJacobi, 0.8, 0,
                      /*pin_f64=*/true);
  Vector b = rhs_for(*s, 5);
  Vector x_mult(b.size(), 0.0), x_add(b.size(), 0.0);
  MultiplicativeMg mult(*s, /*symmetric=*/true);
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  ao.symmetrized_lambda = true;
  AdditiveMg multadd(*s, ao);
  for (int t = 0; t < 5; ++t) {
    mult.cycle(b, x_mult);
    multadd.cycle(b, x_add);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(x_mult[i], x_add[i], 1e-9 * (1.0 + std::abs(x_mult[i])));
  }
}

// BPX over-corrects: as a solver it diverges (Section II-B), which is why
// the paper moves to Multadd/AFACx.
TEST(Bpx, OverCorrectionDiverges) {
  auto s = make_setup(8, SmootherType::kWeightedJacobi);
  Vector b = rhs_for(*s, 6), x(b.size(), 0.0);
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kBpx;
  AdditiveMg bpx(*s, ao);
  const SolveStats st = bpx.solve(b, x, 25);
  EXPECT_GT(st.final_rel_res(), 1.0);
}

TEST(Multadd, ConvergesWhereBpxDiverges) {
  auto s = make_setup(8, SmootherType::kWeightedJacobi);
  Vector b = rhs_for(*s, 6), x(b.size(), 0.0);
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  AdditiveMg mg(*s, ao);
  const SolveStats st = mg.solve(b, x, 120, 1e-9);
  EXPECT_TRUE(st.converged);
}

TEST(Afacx, SweepCountsImproveConvergence) {
  auto s = make_setup(8, SmootherType::kWeightedJacobi);
  Vector b = rhs_for(*s, 7);
  auto run = [&](int s1, int s2) {
    Vector x(b.size(), 0.0);
    AdditiveOptions ao;
    ao.kind = AdditiveKind::kAfacx;
    ao.afacx_s1 = s1;
    ao.afacx_s2 = s2;
    AdditiveMg mg(*s, ao);
    return mg.solve(b, x, 25).final_rel_res();
  };
  const double v11 = run(1, 1);
  const double v22 = run(2, 2);
  EXPECT_LT(v22, v11);  // more smoothing per cycle converges faster
}

TEST(Afacx, RejectsNonPositiveSweeps) {
  auto s = make_setup(6, SmootherType::kWeightedJacobi);
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kAfacx;
  ao.afacx_s1 = 0;
  EXPECT_THROW(AdditiveCorrector(*s, ao), std::invalid_argument);
}

// Per-grid corrections of the synchronous additive cycle must sum to the
// whole cycle's update.
TEST(AdditiveCorrector, CorrectionsSumToCycleUpdate) {
  auto s = make_setup(8, SmootherType::kWeightedJacobi);
  Vector b = rhs_for(*s, 8);
  for (AdditiveKind kind : {AdditiveKind::kMultadd, AdditiveKind::kAfacx}) {
    AdditiveOptions ao;
    ao.kind = kind;
    AdditiveCorrector corr(*s, ao);
    Vector x(b.size(), 0.0);
    Vector r;
    s->a(0).residual(b, x, r);
    Vector sum(b.size(), 0.0), c;
    for (std::size_t k = 0; k < corr.num_grids(); ++k) {
      corr.correction(k, r, c);
      axpy(1.0, c, sum);
    }
    AdditiveMg mg(*s, ao);
    Vector x2(b.size(), 0.0);
    mg.cycle(b, x2);
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_NEAR(sum[i], x2[i], 1e-12) << additive_kind_name(kind);
    }
  }
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// correction(k) and accumulate_cycle over any row split against the
// per-grid reference bodies (tests/oracle/reference_additive: scatter
// restriction, full-length prolongation). The end-to-end BSP gates cannot
// see an arithmetic change here, since their oracle runs the same
// accumulate_cycle. Also pins the callers that sum all grids through
// accumulate_cycle: AdditiveMg::cycle and the additive PCG preconditioners.
TEST(AdditiveCorrector, MatchesReferenceOracleBitwise) {
  struct Method {
    AdditiveKind kind;
    bool symmetrized;
  };
  const Method methods[] = {{AdditiveKind::kMultadd, false},
                            {AdditiveKind::kMultadd, true},
                            {AdditiveKind::kBpx, false},
                            {AdditiveKind::kAfacx, false}};
  for (PrecisionPolicy::Mode mode :
       {PrecisionPolicy::Mode::kF64, PrecisionPolicy::Mode::kF32Coarse}) {
    for (SmootherType st :
         {SmootherType::kWeightedJacobi, SmootherType::kL1Jacobi,
          SmootherType::kHybridJGS}) {
      Problem prob = make_laplace_7pt(10);
      MgOptions mo;
      mo.smoother.type = st;
      mo.smoother.num_blocks = 4;
      mo.amg.precision = PrecisionPolicy{};
      mo.amg.precision.mode = mode;
      const MgSetup s(std::move(prob.a), mo);
      ASSERT_GE(s.num_levels(), 3u);
      const std::size_t n = static_cast<std::size_t>(s.a(0).rows());
      Rng rng(21);
      const Vector b = random_vector(n, rng);
      const Vector x0 = random_vector(n, rng);
      Vector r;
      s.a(0).residual(b, x0, r);
      // Exact zeros: the scatter restriction skips them, the gather adds
      // their (zero) products.
      for (std::size_t i = 0; i < n; i += 5) r[i] = i % 10 == 0 ? 0.0 : -0.0;

      for (const Method& m : methods) {
        AdditiveOptions ao;
        ao.kind = m.kind;
        ao.symmetrized_lambda = m.symmetrized;
        const AdditiveCorrector corr(s, ao);
        const std::string tag = additive_kind_name(m.kind) +
                                (m.symmetrized ? "+sym " : " ") +
                                precision_mode_name(mode) + " smoother " +
                                std::to_string(static_cast<int>(st));
        CorrectionScratch ws;
        Vector c, c_ref;
        for (std::size_t k = 0; k < corr.num_grids(); ++k) {
          oracle::reference_correction(s, ao, k, r, c_ref);
          corr.correction(k, r, c, ws);
          EXPECT_TRUE(bitwise_equal(c, c_ref)) << tag << " grid " << k;
          corr.correction(k, r, c);
          EXPECT_TRUE(bitwise_equal(c, c_ref)) << tag << " grid " << k;
        }

        Vector acc_ref = x0;
        oracle::reference_additive_cycle(s, ao, r, acc_ref);
        for (std::size_t parts : {1u, 2u, 3u, 7u}) {
          Vector acc = x0;
          for (const Range& rg : static_chunks(n, parts)) {
            corr.accumulate_cycle(r, acc, rg.begin, rg.end, ws, c);
          }
          EXPECT_TRUE(bitwise_equal(acc, acc_ref)) << tag << " " << parts;
        }

        if (!m.symmetrized) {
          // AdditiveMg::cycle: x0 plus every grid's correction of b - A x0
          // (whose residual has no planted zeros).
          Vector r_cycle, cycle_ref = x0;
          s.a(0).residual(b, x0, r_cycle);
          oracle::reference_additive_cycle(s, ao, r_cycle, cycle_ref);
          AdditiveMg mg(s, ao);
          Vector x = x0;
          mg.cycle(b, x);
          EXPECT_TRUE(bitwise_equal(x, cycle_ref)) << tag << " cycle";
        }
        if (m.kind == AdditiveKind::kBpx || m.symmetrized) {
          Vector z_ref(n, 0.0), z;
          oracle::reference_additive_cycle(s, ao, r, z_ref);
          make_mg_preconditioner(
              s, m.kind == AdditiveKind::kBpx
                     ? MgPreconditionerKind::kBpx
                     : MgPreconditionerKind::kMultaddSymmetrized)(r, z);
          EXPECT_TRUE(bitwise_equal(z, z_ref)) << tag << " preconditioner";
        }
      }
    }
  }
}

TEST(AdditiveCorrector, WorkEstimatesGrowWithChainDepth) {
  auto s = make_setup(10, SmootherType::kWeightedJacobi);
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  AdditiveCorrector corr(*s, ao);
  const std::vector<double> w = corr.work();
  ASSERT_EQ(w.size(), corr.num_grids());
  for (double wk : w) EXPECT_GT(wk, 0.0);
}

TEST(Multadd, AggressiveCoarseningStillConverges) {
  auto s = make_setup(10, SmootherType::kWeightedJacobi, 0.9, 1);
  Vector b = rhs_for(*s, 9), x(b.size(), 0.0);
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  AdditiveMg mg(*s, ao);
  const SolveStats st = mg.solve(b, x, 120, 1e-9);
  EXPECT_TRUE(st.converged) << st.final_rel_res();
}

TEST(Mult, SolveStopsAtTolerance) {
  auto s = make_setup(8, SmootherType::kWeightedJacobi);
  Vector b = rhs_for(*s, 10), x(b.size(), 0.0);
  MultiplicativeMg mg(*s);
  const SolveStats st = mg.solve(b, x, 500, 1e-6);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(st.cycles, 500);
  EXPECT_LT(st.final_rel_res(), 1e-6);
  // History has initial value + one entry per cycle.
  EXPECT_EQ(static_cast<int>(st.rel_res_history.size()), st.cycles + 1);
}

}  // namespace
}  // namespace asyncmg
