#pragma once
// Compressed sparse row matrix and its core kernels.
//
// This is the workhorse data structure of the library: every operator in the
// multigrid hierarchy (A_k, P_{k+1}^k, smoothed interpolants Pbar, Galerkin
// products) is a CsrMatrix. Its kernels are serial and come in whole-matrix
// and row-range forms; the range forms are what the per-grid thread teams of
// the asynchronous runtime execute (Section IV of the paper), and what the
// kernel backend (backend/backend.hpp) splits across an OpenMP team.

#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sparse/types.hpp"

namespace asyncmg {

/// One coordinate-format entry, used while assembling matrices.
struct Triplet {
  Index row = 0;
  Index col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Empty m x n matrix (all zeros).
  CsrMatrix(Index rows, Index cols);

  /// Build from coordinate triplets; duplicate (row, col) entries are summed,
  /// explicit zeros produced by cancellation are kept (harmless). Column
  /// indices end up sorted within each row.
  static CsrMatrix from_triplets(Index rows, Index cols,
                                 std::vector<Triplet> triplets);

  /// Build directly from CSR arrays (validated).
  static CsrMatrix from_csr(Index rows, Index cols, std::vector<Index> row_ptr,
                            std::vector<Index> cols_idx,
                            std::vector<double> values);

  /// n x n identity.
  static CsrMatrix identity(Index n);

  /// n x n diagonal matrix from a vector of diagonal entries.
  static CsrMatrix diagonal(const Vector& d);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const {
    return static_cast<Index>(prec_ == Precision::kF32 ? values_f32_.size()
                                                       : values_.size());
  }

  std::span<const Index> row_ptr() const { return row_ptr_; }
  std::span<const Index> col_idx() const { return col_idx_; }

  /// Stored scalar width of the value array. Matrices are assembled in fp64;
  /// convert_precision() narrows coarse-level operators after setup.
  Precision precision() const { return prec_; }

  /// fp64 value array; only valid when precision() == kF64 (the assembly,
  /// setup, and oracle paths). Reduced-precision matrices expose values_f32()
  /// or the width-generic with_values() below.
  std::span<const double> values() const {
    assert(prec_ == Precision::kF64);
    return values_;
  }
  std::span<double> values_mutable() {
    assert(prec_ == Precision::kF64);
    return values_;
  }

  /// fp32 value array; only valid when precision() == kF32.
  std::span<const float> values_f32() const {
    assert(prec_ == Precision::kF32);
    return values_f32_;
  }

  /// Width-generic value access: invokes `fn` with the stored value pointer
  /// (`const double*` or `const float*`), instantiating the caller's loop
  /// body once per width so products still accumulate in double (float
  /// operands promote). This is how every solve kernel and the triangular
  /// smoother substitutions stay precision-agnostic without a per-entry
  /// branch.
  template <class Fn>
  decltype(auto) with_values(Fn&& fn) const {
    return prec_ == Precision::kF32 ? fn(values_f32_.data())
                                    : fn(values_.data());
  }

  /// Converts the stored value array. kF64 -> kF32 rounds each entry to the
  /// nearest float and frees the fp64 array (this is the lossy
  /// demotion applied to coarse levels by the precision policy); kF32 ->
  /// kF64 widens exactly. No-op when already at `p`.
  void convert_precision(Precision p);

  /// Bytes held by the value array at the stored width (cache accounting).
  std::size_t value_bytes() const {
    return static_cast<std::size_t>(nnz()) * scalar_width(prec_);
  }

  /// Entry lookup (binary search within the row); zero when absent.
  double at(Index i, Index j) const;

  /// Main diagonal as a dense vector (zero where absent).
  Vector diag() const;

  /// Row-wise l1 norms: sum_j |a_ij| (the l1-Jacobi smoothing matrix).
  Vector l1_row_norms() const;

  /// y = A x.
  void spmv(const Vector& x, Vector& y) const;

  /// y = A x restricted to rows [row_begin, row_end) of y; other rows of y
  /// are untouched. Used by thread teams.
  void spmv_rows(const Vector& x, Vector& y, Index row_begin,
                 Index row_end) const;

  /// y += alpha * A x.
  void spmv_add(const Vector& x, Vector& y, double alpha = 1.0) const;

  /// y += alpha * A x restricted to rows [row_begin, row_end).
  void spmv_add_rows(const Vector& x, Vector& y, double alpha,
                     Index row_begin, Index row_end) const;

  /// r = b - A x.
  void residual(const Vector& b, const Vector& x, Vector& r) const;

  /// r = b - A x restricted to rows [row_begin, row_end).
  void residual_rows(const Vector& b, const Vector& x, Vector& r,
                     Index row_begin, Index row_end) const;

  /// Transpose (explicit). Parallelized over contiguous source-row blocks
  /// (per-block bucket counts + prefix-sum scatter); the output is identical
  /// to the serial transpose for every thread count. `num_threads` 0 means
  /// the OpenMP default.
  CsrMatrix transpose(int num_threads = 0) const;

  /// y = A^T x (without forming the transpose).
  void spmv_transpose(const Vector& x, Vector& y) const;

  /// Scale rows: A <- diag(s) A.
  void scale_rows(const Vector& s);

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Largest entry magnitude, max |a_ij| (0 for an empty matrix).
  double max_abs() const;

  /// Structural + numerical equality within `tol` (same shape; entries
  /// compared densely per row, so differing sparsity with equal values is
  /// still equal).
  bool approx_equal(const CsrMatrix& other, double tol = 1e-12) const;

  /// True when every row's column indices are strictly increasing.
  bool rows_sorted() const;

  /// True when square and |a_ij - a_ji| <= tol for every stored entry (a
  /// missing mirror counts as 0). No transposed copy, no allocation.
  bool is_symmetric(double tol = 1e-10) const;

  /// Human-readable one-line summary ("rows x cols, nnz=...").
  std::string summary() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  Precision prec_ = Precision::kF64;
  std::vector<Index> row_ptr_;  // size rows_+1
  std::vector<Index> col_idx_;  // size nnz
  std::vector<double> values_;      // size nnz when prec_ == kF64, else empty
  std::vector<float> values_f32_;   // size nnz when prec_ == kF32, else empty
};

}  // namespace asyncmg
