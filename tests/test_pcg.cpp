// Tests for preconditioned CG and the multigrid preconditioners — the
// "BPX as a preconditioner" usage the paper describes in Section II-B.

#include <gtest/gtest.h>

#include <cmath>

#include "mesh/problems.hpp"
#include "multigrid/pcg.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

struct Fixture {
  explicit Fixture(Index n = 10, SmootherType st = SmootherType::kWeightedJacobi) {
    Problem prob = make_laplace_7pt(n);
    MgOptions mo;
    mo.smoother.type = st;
    mo.smoother.omega = 0.9;
    setup = std::make_unique<MgSetup>(std::move(prob.a), mo);
    Rng rng(23);
    b = random_vector(static_cast<std::size_t>(setup->a(0).rows()), rng);
  }
  std::unique_ptr<MgSetup> setup;
  Vector b;
};

TEST(Pcg, PlainCgSolvesLaplace) {
  Fixture f;
  Vector x;
  PcgOptions opts;
  opts.max_iterations = 2000;
  const SolveStats st = pcg_solve(f.setup->a(0), f.b, x, nullptr, opts);
  EXPECT_TRUE(st.converged) << st.final_rel_res();
  // Verify against the residual definition.
  Vector r;
  f.setup->a(0).residual(f.b, x, r);
  EXPECT_NEAR(norm2(r) / norm2(f.b), st.final_rel_res(), 1e-12);
}

TEST(Pcg, RejectsShapeMismatch) {
  Fixture f;
  Vector bad(3, 1.0), x;
  EXPECT_THROW(pcg_solve(f.setup->a(0), bad, x, nullptr, {}),
               std::invalid_argument);
}

class PcgPreconditionerTest
    : public ::testing::TestWithParam<MgPreconditionerKind> {};

TEST_P(PcgPreconditionerTest, AcceleratesCg) {
  Fixture f;
  PcgOptions opts;
  opts.max_iterations = 2000;

  Vector x_plain;
  const SolveStats plain = pcg_solve(f.setup->a(0), f.b, x_plain, nullptr, opts);

  Vector x_prec;
  const Preconditioner m = make_mg_preconditioner(*f.setup, GetParam());
  const SolveStats prec = pcg_solve(f.setup->a(0), f.b, x_prec, m, opts);

  EXPECT_TRUE(prec.converged);
  EXPECT_LT(prec.cycles, plain.cycles / 2)
      << "preconditioned " << prec.cycles << " vs plain " << plain.cycles;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PcgPreconditionerTest,
    ::testing::Values(MgPreconditionerKind::kBpx,
                      MgPreconditionerKind::kMultaddSymmetrized,
                      MgPreconditionerKind::kSymmetricVCycle),
    [](const ::testing::TestParamInfo<MgPreconditionerKind>& i) {
      switch (i.param) {
        case MgPreconditionerKind::kBpx: return "Bpx";
        case MgPreconditionerKind::kMultaddSymmetrized:
          return "MultaddSymmetrized";
        case MgPreconditionerKind::kSymmetricVCycle: return "SymmetricVCycle";
      }
      return "unknown";
    });

// BPX diverges as a solver (test_multigrid shows this) but must still be a
// useful preconditioner: that contrast is the reason Multadd/AFACx exist.
TEST(Pcg, BpxUsableEvenThoughItDivergesAsSolver) {
  Fixture f;
  const Preconditioner m =
      make_mg_preconditioner(*f.setup, MgPreconditionerKind::kBpx);
  Vector x;
  PcgOptions opts;
  opts.max_iterations = 100;
  const SolveStats st = pcg_solve(f.setup->a(0), f.b, x, m, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(st.cycles, 40);
}

// The symmetrized-Multadd preconditioner is SPD, so PCG convergence should
// be iteration-count comparable to the symmetric V-cycle preconditioner
// (they are the same operator, by Section II-B1).
TEST(Pcg, MultaddSymmetrizedMatchesSymmetricVCycleCounts) {
  Fixture f;
  PcgOptions opts;
  Vector x1, x2;
  const SolveStats s1 = pcg_solve(
      f.setup->a(0), f.b, x1,
      make_mg_preconditioner(*f.setup, MgPreconditionerKind::kMultaddSymmetrized),
      opts);
  const SolveStats s2 = pcg_solve(
      f.setup->a(0), f.b, x2,
      make_mg_preconditioner(*f.setup, MgPreconditionerKind::kSymmetricVCycle),
      opts);
  EXPECT_TRUE(s1.converged);
  EXPECT_TRUE(s2.converged);
  EXPECT_NEAR(s1.cycles, s2.cycles, 2);
}

// The setup-backed overload (the service's symmetric solve) applies A_0 on
// the setup's backend and SELL form and keeps r, z and A p in the V-cycle's
// level-0 slots; it must reproduce the CSR overload with the kSymmetricVCycle
// preconditioner bit for bit.
TEST(Pcg, SetupBackedMatchesCsrOverloadBitwise) {
  Problem prob = make_laplace_7pt(10);
  MgOptions mo;
  mo.smoother.type = SmootherType::kWeightedJacobi;
  mo.smoother.omega = 0.9;
  mo.engine.sell_min_rows = 1;  // level 0 runs SELL
  MgSetup setup(std::move(prob.a), mo);
  ASSERT_NE(setup.sell(0), nullptr);
  ASSERT_TRUE(setup.symmetric());
  Rng rng(31);
  const Vector b =
      random_vector(static_cast<std::size_t>(setup.a(0).rows()), rng);
  PcgOptions opts;
  opts.tol = 1e-10;

  Vector x_ref;
  const SolveStats ref = pcg_solve(
      setup.a(0), b, x_ref,
      make_mg_preconditioner(setup, MgPreconditionerKind::kSymmetricVCycle),
      opts);
  MultiplicativeMg mg(setup, /*symmetric=*/true);
  Vector x;
  const SolveStats got = pcg_solve(mg, b, x, opts);
  EXPECT_TRUE(got.converged);
  EXPECT_EQ(got.cycles, ref.cycles);
  ASSERT_EQ(got.rel_res_history.size(), ref.rel_res_history.size());
  for (std::size_t i = 0; i < ref.rel_res_history.size(); ++i) {
    EXPECT_EQ(got.rel_res_history[i], ref.rel_res_history[i]) << i;
  }
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], x_ref[i]) << i;
}

double true_rel_res(const CsrMatrix& a, const Vector& b, const Vector& x) {
  Vector r;
  a.residual(b, x, r);
  return norm2(r) / norm2(b);
}

// An unreachable tolerance drives the recurrence residual far below the
// attainable accuracy. It must neither count as convergence nor be
// reported: the solve ends on the true residual.
TEST(Pcg, UnreachableTolEndsOnTrueResidual) {
  Fixture f;
  MultiplicativeMg mg(*f.setup, /*symmetric=*/true);
  PcgOptions opts;
  opts.max_iterations = 200;
  opts.tol = 1e-300;
  Vector x;
  const SolveStats st = pcg_solve(mg, f.b, x, opts);
  EXPECT_FALSE(st.converged);
  for (double v : st.rel_res_history) ASSERT_TRUE(std::isfinite(v));
  EXPECT_DOUBLE_EQ(st.final_rel_res(), true_rel_res(f.setup->a(0), f.b, x));
  EXPECT_LT(st.final_rel_res(), 1e-10);
}

// The stop predicate is polled before every iteration; a stopped solve
// keeps its iterate and ends on the true residual.
TEST(Pcg, StopPredicateEndsOnTrueResidual) {
  Fixture f;
  MultiplicativeMg mg(*f.setup, /*symmetric=*/true);
  int polls = 0;
  Vector x;
  const SolveStats st =
      pcg_solve(mg, f.b, x, PcgOptions{}, [&polls] { return ++polls > 3; });
  EXPECT_TRUE(st.stopped);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.cycles, 3);
  ASSERT_EQ(st.rel_res_history.size(), 4u);
  EXPECT_DOUBLE_EQ(st.final_rel_res(), true_rel_res(f.setup->a(0), f.b, x));
  EXPECT_LT(st.final_rel_res(), st.rel_res_history.front());
}

TEST(Pcg, WorksOnElasticityWithUnknownBasedAmg) {
  Problem prob = make_elasticity_beam(8, 3, 3);
  MgOptions mo;
  mo.amg.num_functions = 3;
  mo.smoother.type = SmootherType::kL1Jacobi;
  MgSetup setup(std::move(prob.a), mo);
  Rng rng(29);
  const Vector b = random_vector(static_cast<std::size_t>(setup.a(0).rows()), rng);
  Vector x;
  PcgOptions opts;
  opts.max_iterations = 400;
  const SolveStats st = pcg_solve(
      setup.a(0), b, x,
      make_mg_preconditioner(setup, MgPreconditionerKind::kSymmetricVCycle),
      opts);
  EXPECT_TRUE(st.converged) << st.final_rel_res();
}

}  // namespace
}  // namespace asyncmg
