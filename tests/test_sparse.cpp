// Unit tests for the sparse kernel substrate (CSR, SpGEMM, dense LU, I/O).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "backend/backend.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/io.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

CsrMatrix small_matrix() {
  // [ 4 -1  0]
  // [-1  4 -1]
  // [ 0 -1  4]
  return CsrMatrix::from_triplets(
      3, 3, {{0, 0, 4}, {0, 1, -1}, {1, 0, -1}, {1, 1, 4}, {1, 2, -1},
             {2, 1, -1}, {2, 2, 4}});
}

CsrMatrix random_sparse(Index rows, Index cols, double density, Rng& rng) {
  std::vector<Triplet> t;
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (rng.next_double() < density) {
        t.push_back({i, j, rng.uniform(-2.0, 2.0)});
      }
    }
  }
  // Guarantee nonempty diagonal-ish structure.
  for (Index i = 0; i < std::min(rows, cols); ++i) t.push_back({i, i, 3.0});
  return CsrMatrix::from_triplets(rows, cols, std::move(t));
}

TEST(Csr, FromTripletsSumsDuplicatesAndSorts) {
  const CsrMatrix a = CsrMatrix::from_triplets(
      2, 3, {{0, 2, 1.0}, {0, 0, 2.0}, {0, 2, 0.5}, {1, 1, -1.0}});
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_TRUE(a.rows_sorted());
  EXPECT_DOUBLE_EQ(a.at(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), -1.0);
}

TEST(Csr, FromTripletsRejectsOutOfRange) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, -1, 1.0}}),
               std::out_of_range);
}

TEST(Csr, FromCsrValidates) {
  EXPECT_THROW(CsrMatrix::from_csr(2, 2, {0, 1}, {0}, {1.0}),
               std::invalid_argument);  // row_ptr too short
  EXPECT_THROW(CsrMatrix::from_csr(2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}),
               std::invalid_argument);  // non-monotone
  EXPECT_THROW(CsrMatrix::from_csr(1, 1, {0, 1}, {5}, {1.0}),
               std::out_of_range);  // column out of range
}

TEST(Csr, IdentityAndDiagonal) {
  const CsrMatrix i3 = CsrMatrix::identity(3);
  Vector x{1.0, 2.0, 3.0}, y;
  i3.spmv(x, y);
  EXPECT_EQ(x, y);
  const CsrMatrix d = CsrMatrix::diagonal({2.0, 3.0, 4.0});
  d.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(Csr, SpmvMatchesDense) {
  Rng rng(21);
  const CsrMatrix a = random_sparse(17, 13, 0.3, rng);
  const DenseMatrix d = DenseMatrix::from_csr(a);
  const Vector x = random_vector(13, rng);
  Vector ys, yd;
  a.spmv(x, ys);
  d.matvec(x, yd);
  for (std::size_t i = 0; i < ys.size(); ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(Csr, SpmvOmpMatchesSerial) {
  Rng rng(22);
  const CsrMatrix a = random_sparse(64, 64, 0.2, rng);
  const Vector x = random_vector(64, rng);
  Vector y1, y2;
  a.spmv(x, y1);
  scalar_backend().csr_spmv(a, x, y2, /*parallel=*/true);
  EXPECT_EQ(y1, y2);
}

TEST(Csr, TransposeRoundTrip) {
  Rng rng(23);
  const CsrMatrix a = random_sparse(11, 19, 0.25, rng);
  const CsrMatrix att = a.transpose().transpose();
  EXPECT_TRUE(a.approx_equal(att));
  EXPECT_TRUE(a.transpose().rows_sorted());
}

TEST(Csr, SpmvTransposeMatchesExplicitTranspose) {
  Rng rng(24);
  const CsrMatrix a = random_sparse(12, 9, 0.3, rng);
  const Vector x = random_vector(12, rng);
  Vector y1, y2;
  a.spmv_transpose(x, y1);
  a.transpose().spmv(x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Csr, ResidualRowsPartialUpdate) {
  const CsrMatrix a = small_matrix();
  const Vector b{1.0, 2.0, 3.0}, x{0.5, 0.5, 0.5};
  Vector r{-7.0, -7.0, -7.0};
  a.residual_rows(b, x, r, 1, 2);
  EXPECT_DOUBLE_EQ(r[0], -7.0);  // untouched
  EXPECT_DOUBLE_EQ(r[1], 2.0 - (-0.5 + 2.0 - 0.5));
  EXPECT_DOUBLE_EQ(r[2], -7.0);  // untouched
}

TEST(Csr, DiagAndL1Norms) {
  const CsrMatrix a = small_matrix();
  const Vector d = a.diag();
  EXPECT_EQ(d, (Vector{4.0, 4.0, 4.0}));
  const Vector l1 = a.l1_row_norms();
  EXPECT_EQ(l1, (Vector{5.0, 6.0, 5.0}));
}

TEST(Csr, SymmetryCheck) {
  EXPECT_TRUE(small_matrix().is_symmetric());
  const CsrMatrix ns =
      CsrMatrix::from_triplets(2, 2, {{0, 1, 1.0}, {1, 1, 1.0}});
  EXPECT_FALSE(ns.is_symmetric());
}

// The one-pass check compares entries with their stored mirrors; an entry
// without one must be caught on either side of the diagonal, and unsorted
// or duplicated columns must not fool the mirror count.
TEST(Csr, SymmetryCheckMirrorsWithoutTranspose) {
  const CsrMatrix lower_only =
      CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_FALSE(lower_only.is_symmetric());
  // A one-sided entry within tol counts as its missing mirror's 0.
  const CsrMatrix tiny = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 0, 1e-14}, {1, 1, 1.0}});
  EXPECT_TRUE(tiny.is_symmetric(1e-12));
  EXPECT_FALSE(tiny.is_symmetric(1e-15));
  EXPECT_FALSE(CsrMatrix(2, 3).is_symmetric());
  // small_matrix() with row 1 stored in descending column order.
  const CsrMatrix unsorted = CsrMatrix::from_csr(
      3, 3, {0, 2, 5, 7}, {0, 1, 2, 1, 0, 1, 2},
      {4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0});
  EXPECT_TRUE(unsorted.is_symmetric());
  // Row 0 stores (0,1) twice; (2,1) has no mirror.
  const CsrMatrix dup = CsrMatrix::from_csr(
      3, 3, {0, 2, 3, 4}, {1, 1, 0, 1}, {1.0, 1.0, 1.0, 5.0});
  EXPECT_FALSE(dup.is_symmetric());
}

TEST(SpGemm, MultiplyMatchesDense) {
  Rng rng(31);
  const CsrMatrix a = random_sparse(10, 14, 0.3, rng);
  const CsrMatrix b = random_sparse(14, 8, 0.3, rng);
  const CsrMatrix c = multiply(a, b);
  EXPECT_TRUE(c.rows_sorted());
  const DenseMatrix da = DenseMatrix::from_csr(a);
  const DenseMatrix db = DenseMatrix::from_csr(b);
  for (Index i = 0; i < 10; ++i) {
    for (Index j = 0; j < 8; ++j) {
      double s = 0.0;
      for (Index k = 0; k < 14; ++k) s += da(i, k) * db(k, j);
      EXPECT_NEAR(c.at(i, j), s, 1e-12) << i << "," << j;
    }
  }
}

TEST(SpGemm, MultiplyRejectsShapeMismatch) {
  Rng rng(32);
  const CsrMatrix a = random_sparse(3, 4, 0.5, rng);
  const CsrMatrix b = random_sparse(3, 4, 0.5, rng);
  EXPECT_THROW(multiply(a, b), std::invalid_argument);
}

TEST(SpGemm, AddWithCoefficients) {
  const CsrMatrix a = small_matrix();
  const CsrMatrix c = add(a, a, 2.0, -1.0);  // = a
  EXPECT_TRUE(c.approx_equal(a));
  const CsrMatrix zero = add(a, a, 1.0, -1.0);
  EXPECT_NEAR(zero.frobenius_norm(), 0.0, 1e-14);
}

TEST(SpGemm, GalerkinMatchesExplicit) {
  Rng rng(33);
  const CsrMatrix a = random_sparse(12, 12, 0.3, rng);
  const CsrMatrix p = random_sparse(12, 5, 0.4, rng);
  const CsrMatrix rap = galerkin_product(a, p);
  const CsrMatrix expl = multiply(p.transpose(), multiply(a, p));
  EXPECT_TRUE(rap.approx_equal(expl, 1e-12));
  EXPECT_EQ(rap.rows(), 5);
  EXPECT_EQ(rap.cols(), 5);
}

TEST(SpGemm, DropSmallKeepsDiagonal) {
  const CsrMatrix a = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1e-18}, {0, 1, 1.0}, {1, 1, 1e-18}});
  const CsrMatrix d = drop_small(a, 1e-12);
  EXPECT_DOUBLE_EQ(d.at(0, 0), 1e-18);  // diagonal kept
  EXPECT_DOUBLE_EQ(d.at(0, 1), 1.0);
  EXPECT_EQ(d.nnz(), 3);
}

TEST(Dense, LuSolvesRandomSystem) {
  Rng rng(41);
  const CsrMatrix a = random_sparse(20, 20, 0.4, rng);
  const LuSolver lu(a);
  const Vector xref = random_vector(20, rng);
  Vector b, x;
  a.spmv(xref, b);
  lu.solve(b, x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-9);
}

TEST(Dense, LuThrowsOnSingular) {
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}});
  EXPECT_THROW(LuSolver{a}, std::runtime_error);
}

TEST(Dense, LuRequiresSquare) {
  Rng rng(42);
  const CsrMatrix a = random_sparse(3, 4, 0.5, rng);
  EXPECT_THROW(LuSolver{a}, std::invalid_argument);
}

TEST(Io, MatrixMarketRoundTrip) {
  Rng rng(51);
  const CsrMatrix a = random_sparse(9, 7, 0.3, rng);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const CsrMatrix b = read_matrix_market(ss);
  EXPECT_TRUE(a.approx_equal(b, 1e-14));
}

TEST(Io, StoredOrderRoundTripIsArrayExact) {
  // Row 0 stores its columns out of order, row 1 one column twice: the
  // stored-order reader keeps both as written, read_matrix_market sorts and
  // merges.
  const CsrMatrix a = CsrMatrix::from_csr(2, 3, {0, 3, 6}, {2, 0, 1, 1, 1, 0},
                                          {1.0 / 3.0, -2.0, 0.5, 4.0, 1e-300,
                                           -0.0});
  std::stringstream ss;
  write_matrix_market(ss, a);
  const std::string text = ss.str();
  std::stringstream in(text);
  const CsrMatrix b = read_matrix_market_stored(in);
  ASSERT_TRUE(std::ranges::equal(b.row_ptr(), a.row_ptr()));
  ASSERT_TRUE(std::ranges::equal(b.col_idx(), a.col_idx()));
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.values()[k]),
              std::bit_cast<std::uint64_t>(a.values()[k]))
        << k;
  }
  std::stringstream canon(text);
  EXPECT_EQ(read_matrix_market(canon).nnz(), 5);
}

TEST(Io, StoredOrderRejectsRowsOutOfOrder) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n"
     << "2 2 2\n"
     << "2 1 1.0\n"
     << "1 1 1.0\n";
  EXPECT_THROW(read_matrix_market_stored(ss), std::runtime_error);
  std::stringstream sym;
  sym << "%%MatrixMarket matrix coordinate real symmetric\n"
      << "1 1 1\n"
      << "1 1 1.0\n";
  EXPECT_THROW(read_matrix_market_stored(sym), std::runtime_error);
}

TEST(Io, SymmetricExpansion) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "2 2 2\n"
     << "1 1 4.0\n"
     << "2 1 -1.0\n";
  const CsrMatrix a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
}

TEST(Io, RejectsBadBanner) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix array real general\n1 1\n1.0\n";
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(Io, VectorRoundTrip) {
  Rng rng(52);
  const Vector v = random_vector(13, rng);
  std::stringstream ss;
  write_vector(ss, v);
  const Vector w = read_vector(ss);
  ASSERT_EQ(v.size(), w.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], w[i], 1e-15);
}

TEST(Csr, ScaleRowsMultipliesEachRow) {
  const CsrMatrix a = small_matrix();
  CsrMatrix b = a;
  b.scale_rows({2.0, 0.5, -1.0});
  EXPECT_DOUBLE_EQ(b.at(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(b.at(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(b.at(1, 0), -0.5);
  EXPECT_DOUBLE_EQ(b.at(2, 2), -4.0);
}

TEST(Csr, SpmvAddAccumulates) {
  const CsrMatrix a = small_matrix();
  const Vector x{1.0, 1.0, 1.0};
  Vector y{10.0, 10.0, 10.0};
  a.spmv_add(x, y, 2.0);
  EXPECT_DOUBLE_EQ(y[0], 10.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0 + 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(y[2], 10.0 + 2.0 * 3.0);
}

TEST(Csr, FrobeniusNormAndSummary) {
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, {{0, 0, 3.0}, {1, 1, 4.0}});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_EQ(a.summary(), "2 x 2, nnz=2");
}

TEST(Csr, EmptyMatrixBehaves) {
  const CsrMatrix a(3, 3);
  EXPECT_EQ(a.nnz(), 0);
  const Vector x{1.0, 2.0, 3.0};
  Vector y;
  a.spmv(x, y);
  EXPECT_EQ(y, (Vector{0.0, 0.0, 0.0}));
  EXPECT_TRUE(a.is_symmetric());
  const CsrMatrix t = a.transpose();
  EXPECT_EQ(t.nnz(), 0);
}

TEST(Csr, ApproxEqualSeesValueDifferences) {
  const CsrMatrix a = small_matrix();
  CsrMatrix b = a;
  b.values_mutable()[0] += 1e-6;
  EXPECT_FALSE(a.approx_equal(b, 1e-9));
  EXPECT_TRUE(a.approx_equal(b, 1e-3));
  // Different sparsity with equal dense values is still equal.
  const CsrMatrix with_zero = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 0.0}});
  const CsrMatrix without = CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}});
  EXPECT_TRUE(with_zero.approx_equal(without));
}

TEST(Vec, BasicKernels) {
  Vector x{1.0, 2.0, 3.0}, y{1.0, 1.0, 1.0};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{3.0, 5.0, 7.0}));
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf({-3.0, 2.0}), 3.0);
  scale(x, 0.5);
  EXPECT_EQ(x, (Vector{0.5, 1.0, 1.5}));
  Vector h;
  hadamard({2.0, 3.0, 4.0}, x, h);
  EXPECT_EQ(h, (Vector{1.0, 3.0, 6.0}));
}

TEST(Vec, RandomVectorInRange) {
  Rng rng(61);
  const Vector v = random_vector(1000, rng, -1.0, 1.0);
  for (double e : v) {
    EXPECT_GE(e, -1.0);
    EXPECT_LE(e, 1.0);
  }
  // Mean should be near zero for a uniform [-1,1] sample of this size.
  double m = 0.0;
  for (double e : v) m += e;
  EXPECT_LT(std::abs(m / 1000.0), 0.1);
}

}  // namespace
}  // namespace asyncmg
