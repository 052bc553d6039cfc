// Unit tests for the AMG setup substrate: strength of connection,
// coarse/fine splitting invariants, interpolation properties, hierarchy
// construction (one-shot and step by step).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "amg/coarsen.hpp"
#include "amg/hierarchy.hpp"
#include "amg/interp.hpp"
#include "amg/strength.hpp"
#include "mesh/problems.hpp"
#include "sparse/spgemm.hpp"

namespace asyncmg {
namespace {

CsrMatrix laplace1d(Index n) {
  std::vector<Triplet> t;
  for (Index i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return CsrMatrix::from_triplets(n, n, std::move(t));
}

TEST(Strength, Laplace1dAllNeighborsStrong) {
  const CsrMatrix a = laplace1d(10);
  const CsrMatrix s = strength_matrix(a, 0.25);
  // Every off-diagonal is equally strong; interior rows have two strong
  // dependencies, boundary rows one.
  EXPECT_EQ(s.nnz(), a.nnz() - a.rows());
  EXPECT_DOUBLE_EQ(s.at(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(s.at(3, 3), 0.0);  // no self-dependence
}

TEST(Strength, ThetaFiltersWeakConnections) {
  // Row 0: strong -4, weak -1 (threshold 0.5 * 4 = 2).
  const CsrMatrix a = CsrMatrix::from_triplets(
      3, 3, {{0, 0, 6.0}, {0, 1, -4.0}, {0, 2, -1.0},
             {1, 0, -4.0}, {1, 1, 6.0}, {2, 0, -1.0}, {2, 2, 6.0}});
  const CsrMatrix s = strength_matrix(a, 0.5);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(s.at(0, 2), 0.0);
}

TEST(Strength, AbsoluteNormSeesPositiveOffDiagonals) {
  const CsrMatrix a = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 2.0}, {0, 1, 1.5}, {1, 0, 1.5}, {1, 1, 2.0}});
  EXPECT_EQ(strength_matrix(a, 0.25, StrengthNorm::kNegative).nnz(), 0);
  EXPECT_EQ(strength_matrix(a, 0.25, StrengthNorm::kAbsolute).nnz(), 2);
}

TEST(Strength, Distance2ReachesNeighborsOfNeighbors) {
  const CsrMatrix a = laplace1d(7);
  const CsrMatrix s = strength_matrix(a, 0.25);
  const CsrMatrix s2 = strength_distance2(s);
  EXPECT_DOUBLE_EQ(s2.at(3, 1), 1.0);  // distance 2
  EXPECT_DOUBLE_EQ(s2.at(3, 5), 1.0);
  EXPECT_DOUBLE_EQ(s2.at(3, 0), 0.0);  // distance 3
  EXPECT_DOUBLE_EQ(s2.at(3, 3), 0.0);  // no diagonal
}

/// Invariant of all our splittings: every F point with at least one strong
/// connection has a strong C neighbor (so interpolation has something to
/// work with), except after aggressive coarsening.
void check_f_points_covered(const CsrMatrix& s, const Splitting& split) {
  const auto rp = s.row_ptr();
  const auto ci = s.col_idx();
  for (Index i = 0; i < s.rows(); ++i) {
    if (split[static_cast<std::size_t>(i)] == PointType::kCoarse) continue;
    if (rp[i + 1] == rp[i]) continue;  // no strong deps: smoother-only point
    bool has_c = false;
    for (Index k = rp[i]; k < rp[i + 1] && !has_c; ++k) {
      has_c = split[static_cast<std::size_t>(
                  ci[static_cast<std::size_t>(k)])] == PointType::kCoarse;
    }
    EXPECT_TRUE(has_c) << "F point " << i << " has no strong C neighbor";
  }
}

/// C points must form an independent set in S for PMIS-type coarsenings.
void check_c_independent(const CsrMatrix& s, const Splitting& split) {
  const auto rp = s.row_ptr();
  const auto ci = s.col_idx();
  for (Index i = 0; i < s.rows(); ++i) {
    if (split[static_cast<std::size_t>(i)] != PointType::kCoarse) continue;
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      EXPECT_NE(split[static_cast<std::size_t>(
                    ci[static_cast<std::size_t>(k)])],
                PointType::kCoarse)
          << "C-C strong connection " << i;
    }
  }
}

/// Splitting parameters for the production coarsening with a per-test seed.
CoarsenParams params(CoarsenAlgo algo, std::uint64_t seed) {
  CoarsenParams p;
  p.algo = algo;
  p.seed = seed;
  return p;
}

class CoarsenAlgoTest : public ::testing::TestWithParam<CoarsenAlgo> {};

TEST_P(CoarsenAlgoTest, FPointsCoveredOn7pt) {
  Problem prob = make_laplace_7pt(8);
  const CsrMatrix s = strength_matrix(prob.a, 0.25);
  const Splitting split = coarsen_parallel(s, params(GetParam(), 5));
  const Index nc = count_coarse(split);
  EXPECT_GT(nc, 0);
  EXPECT_LT(nc, prob.a.rows());
  check_f_points_covered(s, split);
}

TEST_P(CoarsenAlgoTest, CoarsensAnisotropic) {
  Problem prob = make_laplace_7pt_anisotropic(8, 100.0);
  const CsrMatrix s = strength_matrix(prob.a, 0.25);
  const Splitting split = coarsen_parallel(s, params(GetParam(), 6));
  const Index nc = count_coarse(split);
  EXPECT_GT(nc, 0);
  EXPECT_LT(nc, prob.a.rows());
  check_f_points_covered(s, split);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, CoarsenAlgoTest,
                         ::testing::Values(CoarsenAlgo::kRS,
                                           CoarsenAlgo::kPMIS,
                                           CoarsenAlgo::kHMIS),
                         [](const ::testing::TestParamInfo<CoarsenAlgo>& i) {
                           switch (i.param) {
                             case CoarsenAlgo::kRS: return "RS";
                             case CoarsenAlgo::kPMIS: return "PMIS";
                             case CoarsenAlgo::kHMIS: return "HMIS";
                           }
                           return "unknown";
                         });

TEST(Coarsen, PmisCIndependent) {
  Problem prob = make_laplace_27pt(6);
  const CsrMatrix s = strength_matrix(prob.a, 0.25);
  const Splitting split = coarsen_parallel(s, params(CoarsenAlgo::kPMIS, 7));
  check_c_independent(s, split);
}

TEST(Coarsen, AggressiveCoarsensFurther) {
  Problem prob = make_laplace_7pt(8);
  const CsrMatrix s = strength_matrix(prob.a, 0.25);
  const CoarsenParams cp = params(CoarsenAlgo::kHMIS, 8);
  const Splitting first = coarsen_parallel(s, cp);
  const Splitting agg = coarsen_aggressive_parallel(s, first, cp);
  const Index nc1 = count_coarse(first);
  const Index nc2 = count_coarse(agg);
  EXPECT_GT(nc2, 0);
  EXPECT_LT(nc2, nc1);
  // Aggressive C points must be a subset of the first-stage C points.
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (agg[i] == PointType::kCoarse) {
      EXPECT_EQ(first[i], PointType::kCoarse);
    }
  }
}

TEST(Coarsen, IsolatedPointsBecomeFine) {
  // 3 disconnected points: no strong connections anywhere.
  const CsrMatrix a = CsrMatrix::diagonal({1.0, 2.0, 3.0});
  const CsrMatrix s = strength_matrix(a, 0.25);
  for (CoarsenAlgo algo :
       {CoarsenAlgo::kRS, CoarsenAlgo::kPMIS, CoarsenAlgo::kHMIS}) {
    const Splitting split = coarsen_parallel(s, params(algo, 9));
    EXPECT_EQ(count_coarse(split), 0);
  }
}

TEST(Coarsen, NumberingIsContiguous) {
  Splitting split{PointType::kFine, PointType::kCoarse, PointType::kFine,
                  PointType::kCoarse};
  const auto num = coarse_numbering(split);
  EXPECT_EQ(num, (std::vector<Index>{-1, 0, -1, 1}));
  EXPECT_EQ(count_coarse(split), 2);
}

class InterpAlgoTest : public ::testing::TestWithParam<InterpAlgo> {};

// Constant vectors must be reproduced by interpolation on M-matrix rows
// with full strong-C coverage: row sums of P over F rows are <= 1 and
// positive, and C rows are exactly identity.
TEST_P(InterpAlgoTest, IdentityOnCPointsAndBoundedRows) {
  Problem prob = make_laplace_7pt(7);
  const CsrMatrix s = strength_matrix(prob.a, 0.25);
  const Splitting split = coarsen_parallel(s, params(CoarsenAlgo::kHMIS, 10));
  const CsrMatrix p = build_interpolation(GetParam(), prob.a, s, split);
  EXPECT_EQ(p.rows(), prob.a.rows());
  EXPECT_EQ(p.cols(), count_coarse(split));
  const auto cnum = coarse_numbering(split);
  const auto rp = p.row_ptr();
  const auto vals = p.values();
  for (Index i = 0; i < p.rows(); ++i) {
    if (split[static_cast<std::size_t>(i)] == PointType::kCoarse) {
      ASSERT_EQ(rp[i + 1] - rp[i], 1);
      EXPECT_DOUBLE_EQ(p.at(i, cnum[static_cast<std::size_t>(i)]), 1.0);
    } else {
      double row_sum = 0.0;
      for (Index k = rp[i]; k < rp[i + 1]; ++k) {
        row_sum += vals[static_cast<std::size_t>(k)];
      }
      EXPECT_GE(row_sum, 0.0);
      EXPECT_LE(row_sum, 1.0 + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, InterpAlgoTest,
                         ::testing::Values(InterpAlgo::kDirect,
                                           InterpAlgo::kClassicalModified,
                                           InterpAlgo::kMultipass),
                         [](const ::testing::TestParamInfo<InterpAlgo>& i) {
                           switch (i.param) {
                             case InterpAlgo::kDirect: return "Direct";
                             case InterpAlgo::kClassicalModified:
                               return "ClassicalModified";
                             case InterpAlgo::kMultipass: return "Multipass";
                           }
                           return "unknown";
                         });

TEST(Interp, MultipassCoversAggressiveSplitting) {
  Problem prob = make_laplace_7pt(8);
  const CsrMatrix s = strength_matrix(prob.a, 0.25);
  const CoarsenParams cp = params(CoarsenAlgo::kHMIS, 11);
  Splitting split = coarsen_parallel(s, cp);
  split = coarsen_aggressive_parallel(s, split, cp);
  const CsrMatrix p = interp_multipass(prob.a, s, split);
  // Every row must interpolate from something (the mesh is connected).
  const auto rp = p.row_ptr();
  for (Index i = 0; i < p.rows(); ++i) {
    EXPECT_GT(rp[i + 1], rp[i]) << "empty interpolation row " << i;
  }
}

TEST(Interp, TruncationPreservesRowSums) {
  Problem prob = make_laplace_27pt(6);
  const CsrMatrix s = strength_matrix(prob.a, 0.25);
  const Splitting split = coarsen_parallel(s, params(CoarsenAlgo::kHMIS, 12));
  const CsrMatrix p = interp_classical_modified(prob.a, s, split);
  const CsrMatrix pt = truncate_interpolation(p, 0.3);
  EXPECT_LE(pt.nnz(), p.nnz());
  const auto rp0 = p.row_ptr();
  const auto v0 = p.values();
  const auto rp1 = pt.row_ptr();
  const auto v1 = pt.values();
  for (Index i = 0; i < p.rows(); ++i) {
    double s0 = 0.0, s1 = 0.0;
    for (Index k = rp0[i]; k < rp0[i + 1]; ++k) {
      s0 += v0[static_cast<std::size_t>(k)];
    }
    for (Index k = rp1[i]; k < rp1[i + 1]; ++k) {
      s1 += v1[static_cast<std::size_t>(k)];
    }
    EXPECT_NEAR(s0, s1, 1e-12) << "row " << i;
  }
}

TEST(Strength, UnknownBasedIgnoresCrossComponentCouplings) {
  // Two interleaved components with strong cross-couplings: with
  // num_functions = 2 only same-component entries may appear in S.
  const CsrMatrix a = CsrMatrix::from_triplets(
      4, 4, {{0, 0, 2.0}, {0, 1, -5.0}, {0, 2, -1.0},
             {1, 0, -5.0}, {1, 1, 2.0}, {1, 3, -1.0},
             {2, 0, -1.0}, {2, 2, 2.0},
             {3, 1, -1.0}, {3, 3, 2.0}});
  const CsrMatrix s_scalar = strength_matrix(a, 0.25);
  EXPECT_GT(s_scalar.at(0, 1), 0.0);  // cross coupling counts
  const CsrMatrix s_nf = strength_matrix(a, 0.25, StrengthNorm::kNegative, 2);
  EXPECT_DOUBLE_EQ(s_nf.at(0, 1), 0.0);  // cross coupling ignored
  EXPECT_GT(s_nf.at(0, 2), 0.0);         // same-component survives
}

TEST(Hierarchy, UnknownBasedKeepsComponentsSeparate) {
  Problem prob = make_elasticity_beam(6, 3, 3);
  AmgOptions opts;
  opts.num_functions = 3;
  Hierarchy h = Hierarchy::build(std::move(prob.a), opts);
  EXPECT_GE(h.num_levels(), 2u);
  // Interpolation never mixes components on the finest level: P(i, c) != 0
  // only when coarse dof c came from a fine dof with i's component.
  const Splitting& split = h.level(0).split;
  std::vector<int> coarse_comp;
  for (std::size_t i = 0; i < split.size(); ++i) {
    if (split[i] == PointType::kCoarse) {
      coarse_comp.push_back(static_cast<int>(i % 3));
    }
  }
  const CsrMatrix& p = h.interpolation(0);
  const auto rp = p.row_ptr();
  const auto ci = p.col_idx();
  for (Index i = 0; i < p.rows(); ++i) {
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      EXPECT_EQ(coarse_comp[static_cast<std::size_t>(
                    ci[static_cast<std::size_t>(k)])],
                static_cast<int>(i % 3))
          << "row " << i;
    }
  }
}

TEST(Hierarchy, BuildsMultipleLevelsAndStaysSpd) {
  Problem prob = make_laplace_7pt(10);
  AmgOptions opts;
  // fp64 oracle: the 1e-10 Galerkin-consistency check below compares a
  // freshly computed RAP against the stored coarse operator, which only
  // holds to that tolerance when nothing was demoted. Mixed-precision
  // hierarchies are covered by test_precision.
  opts.precision = PrecisionPolicy{};
  Hierarchy h = Hierarchy::build(std::move(prob.a), opts);
  EXPECT_GE(h.num_levels(), 3u);
  EXPECT_LE(h.matrix(h.num_levels() - 1).rows(), opts.coarse_size);
  for (std::size_t k = 0; k < h.num_levels(); ++k) {
    EXPECT_TRUE(h.matrix(k).is_symmetric(1e-8)) << "level " << k;
  }
  // Galerkin consistency: A_{k+1} == P^T A_k P.
  for (std::size_t k = 0; k + 1 < h.num_levels(); ++k) {
    const CsrMatrix rap = galerkin_product(h.matrix(k), h.interpolation(k));
    EXPECT_TRUE(rap.approx_equal(h.matrix(k + 1), 1e-10)) << "level " << k;
  }
}

TEST(Hierarchy, AggressiveReducesComplexity) {
  Problem p1 = make_laplace_27pt(8);
  Problem p2 = make_laplace_27pt(8);
  AmgOptions plain;
  AmgOptions agg;
  agg.num_aggressive_levels = 1;
  Hierarchy h0 = Hierarchy::build(std::move(p1.a), plain);
  Hierarchy h1 = Hierarchy::build(std::move(p2.a), agg);
  // Aggressive coarsening must shrink the second level.
  ASSERT_GE(h0.num_levels(), 2u);
  ASSERT_GE(h1.num_levels(), 2u);
  EXPECT_LT(h1.matrix(1).rows(), h0.matrix(1).rows());
  EXPECT_LT(h1.grid_complexity(), h0.grid_complexity());
}

TEST(Hierarchy, DeterministicGivenSeed) {
  Problem p1 = make_laplace_7pt(8);
  Problem p2 = make_laplace_7pt(8);
  AmgOptions opts;
  opts.seed = 99;
  Hierarchy h0 = Hierarchy::build(std::move(p1.a), opts);
  Hierarchy h1 = Hierarchy::build(std::move(p2.a), opts);
  ASSERT_EQ(h0.num_levels(), h1.num_levels());
  for (std::size_t k = 0; k < h0.num_levels(); ++k) {
    EXPECT_TRUE(h0.matrix(k).approx_equal(h1.matrix(k), 0.0));
  }
}

TEST(Hierarchy, ComplexityStatsSane) {
  Problem prob = make_laplace_7pt(10);
  Hierarchy h = Hierarchy::build(std::move(prob.a), {});
  EXPECT_GT(h.operator_complexity(), 1.0);
  EXPECT_LT(h.operator_complexity(), 3.0);
  EXPECT_GT(h.grid_complexity(), 1.0);
  EXPECT_LT(h.grid_complexity(), 2.0);
  EXPECT_FALSE(h.summary().empty());
}

/// Bitwise equality: same pattern in the same order and identical values.
void expect_identical_matrix(const CsrMatrix& a, const CsrMatrix& b,
                             const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  const auto arp = a.row_ptr(), brp = b.row_ptr();
  const auto aci = a.col_idx(), bci = b.col_idx();
  const auto av = a.values(), bv = b.values();
  EXPECT_TRUE(std::equal(arp.begin(), arp.end(), brp.begin())) << what;
  EXPECT_TRUE(std::equal(aci.begin(), aci.end(), bci.begin())) << what;
  EXPECT_TRUE(std::equal(av.begin(), av.end(), bv.begin())) << what;
}

TEST(HierarchyBuilder, StepwiseFinishMatchesDirectBuild) {
  // Harnesses drive step() and finish() themselves (perfbench's amg probe
  // times each step), so the stepped build must be the direct one exactly.
  const CsrMatrix a = make_laplace_7pt(12).a;
  AmgOptions opts;
  opts.precision = PrecisionPolicy{};  // pin the fp64 oracle
  const Hierarchy direct = Hierarchy::build(a, opts);

  HierarchyBuilder builder(a, opts);
  std::size_t steps = 0;
  while (builder.step()) ++steps;
  EXPECT_GE(steps, 1u);
  EXPECT_EQ(steps + 1, direct.num_levels());
  EXPECT_FALSE(builder.step());  // complete from then on
  const Hierarchy stepped = builder.finish();

  ASSERT_EQ(stepped.num_levels(), direct.num_levels());
  for (std::size_t k = 0; k < direct.num_levels(); ++k) {
    const std::string tag = "level " + std::to_string(k);
    expect_identical_matrix(direct.matrix(k), stepped.matrix(k), tag + " A");
    if (k + 1 < direct.num_levels()) {
      EXPECT_LT(stepped.matrix(k + 1).rows(), stepped.matrix(k).rows());
      expect_identical_matrix(direct.interpolation(k),
                              stepped.interpolation(k), tag + " P");
    }
  }
}

}  // namespace
}  // namespace asyncmg
