#include "sparse/csr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "sparse/parallel.hpp"

namespace asyncmg {

namespace {

// Raw-pointer row-range bodies behind the whole-matrix and *_rows kernels.
// The kernel backend calls the *_rows forms from inside its OpenMP region,
// so each body stays one plain function over raw pointers (an outlined loop
// body loses the aliasing information the vectorizer needs).
//
// Bodies are templated over the stored value type (double or float, per the
// matrix's Precision): values widen to double on load and every accumulator
// stays double, so the fp64 instantiation is bit-for-bit the pre-template
// code and the fp32 instantiation only narrows the streamed operator bytes.

template <class AV>
void spmv_body(const Index* rp, const Index* ci, const AV* av,
               const double* xp, double* yp, Index lo, Index hi) {
  for (Index i = lo; i < hi; ++i) {
    double s = 0.0;
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      s += av[k] * xp[ci[k]];
    }
    yp[i] = s;
  }
}

template <class AV>
void spmv_add_body(const Index* rp, const Index* ci, const AV* av,
                   const double* xp, double* yp, double alpha, Index lo,
                   Index hi) {
  for (Index i = lo; i < hi; ++i) {
    double s = 0.0;
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      s += av[k] * xp[ci[k]];
    }
    yp[i] += alpha * s;
  }
}

template <class AV>
void residual_body(const Index* rp, const Index* ci, const AV* av,
                   const double* bp, const double* xp, double* rr, Index lo,
                   Index hi) {
  for (Index i = lo; i < hi; ++i) {
    double s = bp[i];
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      s -= av[k] * xp[ci[k]];
    }
    rr[i] = s;
  }
}

}  // namespace

void CsrMatrix::convert_precision(Precision p) {
  if (p == prec_) return;
  if (p == Precision::kF32) {
    values_f32_.assign(values_.begin(), values_.end());
    values_.clear();
    values_.shrink_to_fit();
  } else {
    values_.assign(values_f32_.begin(), values_f32_.end());
    values_f32_.clear();
    values_f32_.shrink_to_fit();
  }
  prec_ = p;
}

CsrMatrix::CsrMatrix(Index rows, Index cols)
    : rows_(rows), cols_(cols), row_ptr_(static_cast<std::size_t>(rows) + 1, 0) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("negative dimension");
}

CsrMatrix CsrMatrix::from_triplets(Index rows, Index cols,
                                   std::vector<Triplet> triplets) {
  CsrMatrix a(rows, cols);
  for (const auto& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      throw std::out_of_range("triplet index out of range");
    }
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& x, const Triplet& y) {
              return x.row != y.row ? x.row < y.row : x.col < y.col;
            });
  // Merge duplicates while counting row sizes.
  a.col_idx_.reserve(triplets.size());
  a.values_.reserve(triplets.size());
  std::size_t i = 0;
  while (i < triplets.size()) {
    const Index r = triplets[i].row;
    const Index c = triplets[i].col;
    double v = triplets[i].value;
    std::size_t j = i + 1;
    while (j < triplets.size() && triplets[j].row == r && triplets[j].col == c) {
      v += triplets[j].value;
      ++j;
    }
    a.col_idx_.push_back(c);
    a.values_.push_back(v);
    ++a.row_ptr_[static_cast<std::size_t>(r) + 1];
    i = j;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    a.row_ptr_[r + 1] += a.row_ptr_[r];
  }
  return a;
}

CsrMatrix CsrMatrix::from_csr(Index rows, Index cols,
                              std::vector<Index> row_ptr,
                              std::vector<Index> cols_idx,
                              std::vector<double> values) {
  if (row_ptr.size() != static_cast<std::size_t>(rows) + 1) {
    throw std::invalid_argument("row_ptr size mismatch");
  }
  if (cols_idx.size() != values.size() ||
      row_ptr.back() != static_cast<Index>(values.size()) || row_ptr[0] != 0) {
    throw std::invalid_argument("CSR arrays inconsistent");
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      throw std::invalid_argument("row_ptr not monotone");
    }
  }
  for (Index c : cols_idx) {
    if (c < 0 || c >= cols) throw std::out_of_range("column index out of range");
  }
  CsrMatrix a;
  a.rows_ = rows;
  a.cols_ = cols;
  a.row_ptr_ = std::move(row_ptr);
  a.col_idx_ = std::move(cols_idx);
  a.values_ = std::move(values);
  return a;
}

CsrMatrix CsrMatrix::identity(Index n) {
  CsrMatrix a(n, n);
  a.col_idx_.resize(static_cast<std::size_t>(n));
  a.values_.assign(static_cast<std::size_t>(n), 1.0);
  for (Index i = 0; i < n; ++i) {
    a.row_ptr_[static_cast<std::size_t>(i) + 1] = i + 1;
    a.col_idx_[static_cast<std::size_t>(i)] = i;
  }
  return a;
}

CsrMatrix CsrMatrix::diagonal(const Vector& d) {
  const Index n = static_cast<Index>(d.size());
  CsrMatrix a = identity(n);
  std::copy(d.begin(), d.end(), a.values_.begin());
  return a;
}

double CsrMatrix::at(Index i, Index j) const {
  assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
  const Index b = row_ptr_[static_cast<std::size_t>(i)];
  const Index e = row_ptr_[static_cast<std::size_t>(i) + 1];
  const auto first = col_idx_.begin() + b;
  const auto last = col_idx_.begin() + e;
  const auto it = std::lower_bound(first, last, j);
  if (it != last && *it == j) {
    return with_values([&](const auto* v) -> double {
      return v[static_cast<std::size_t>(it - col_idx_.begin())];
    });
  }
  return 0.0;
}

Vector CsrMatrix::diag() const {
  Vector d(static_cast<std::size_t>(rows_), 0.0);
  with_values([&](const auto* v) {
    for (Index i = 0; i < rows_; ++i) {
      for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        if (col_idx_[static_cast<std::size_t>(k)] == i) {
          d[static_cast<std::size_t>(i)] = v[static_cast<std::size_t>(k)];
          break;
        }
      }
    }
  });
  return d;
}

Vector CsrMatrix::l1_row_norms() const {
  Vector d(static_cast<std::size_t>(rows_), 0.0);
  with_values([&](const auto* v) {
    for (Index i = 0; i < rows_; ++i) {
      double s = 0.0;
      for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        s += std::abs(static_cast<double>(v[static_cast<std::size_t>(k)]));
      }
      d[static_cast<std::size_t>(i)] = s;
    }
  });
  return d;
}

void CsrMatrix::spmv(const Vector& x, Vector& y) const {
  assert(static_cast<Index>(x.size()) == cols_);
  y.resize(static_cast<std::size_t>(rows_));
  spmv_rows(x, y, 0, rows_);
}

void CsrMatrix::spmv_rows(const Vector& x, Vector& y, Index row_begin,
                          Index row_end) const {
  assert(row_begin >= 0 && row_end <= rows_);
  with_values([&](const auto* av) {
    spmv_body(row_ptr_.data(), col_idx_.data(), av, x.data(), y.data(),
              row_begin, row_end);
  });
}

void CsrMatrix::spmv_add(const Vector& x, Vector& y, double alpha) const {
  spmv_add_rows(x, y, alpha, 0, rows_);
}

void CsrMatrix::spmv_add_rows(const Vector& x, Vector& y, double alpha,
                              Index row_begin, Index row_end) const {
  assert(static_cast<Index>(x.size()) == cols_ &&
         static_cast<Index>(y.size()) == rows_);
  assert(row_begin >= 0 && row_end <= rows_);
  with_values([&](const auto* av) {
    spmv_add_body(row_ptr_.data(), col_idx_.data(), av, x.data(), y.data(),
                  alpha, row_begin, row_end);
  });
}

void CsrMatrix::residual(const Vector& b, const Vector& x, Vector& r) const {
  r.resize(static_cast<std::size_t>(rows_));
  residual_rows(b, x, r, 0, rows_);
}

void CsrMatrix::residual_rows(const Vector& b, const Vector& x, Vector& r,
                              Index row_begin, Index row_end) const {
  assert(static_cast<Index>(b.size()) == rows_ &&
         static_cast<Index>(x.size()) == cols_);
  with_values([&](const auto* av) {
    residual_body(row_ptr_.data(), col_idx_.data(), av, b.data(), x.data(),
                  r.data(), row_begin, row_end);
  });
}

CsrMatrix CsrMatrix::transpose(int num_threads) const {
  CsrMatrix t(cols_, rows_);
  const auto nz = static_cast<std::size_t>(nnz());
  t.prec_ = prec_;
  t.col_idx_.resize(nz);
  if (prec_ == Precision::kF32) {
    t.values_f32_.resize(nz);
  } else {
    t.values_.resize(nz);
  }
  // Width-generic scatter target: same element type as the source array.
  const auto dst = [&t](const auto* src) {
    if constexpr (std::is_same_v<std::decay_t<decltype(*src)>, float>) {
      return t.values_f32_.data();
    } else {
      return t.values_.data();
    }
  };
  const int nt =
      rows_ >= kSetupSerialCutoff ? resolve_setup_threads(num_threads) : 1;
  if (nt == 1) {
    // Count entries per column.
    for (Index c : col_idx_) ++t.row_ptr_[static_cast<std::size_t>(c) + 1];
    for (std::size_t r = 0; r < static_cast<std::size_t>(cols_); ++r) {
      t.row_ptr_[r + 1] += t.row_ptr_[r];
    }
    std::vector<Index> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
    with_values([&](const auto* sv) {
      auto* tv = dst(sv);
      for (Index i = 0; i < rows_; ++i) {
        for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
          const Index c = col_idx_[static_cast<std::size_t>(k)];
          const Index pos = next[static_cast<std::size_t>(c)]++;
          t.col_idx_[static_cast<std::size_t>(pos)] = i;
          tv[static_cast<std::size_t>(pos)] = sv[static_cast<std::size_t>(k)];
        }
      }
    });
    return t;  // rows visited in increasing i => columns sorted per row
  }

  // Parallel path: split source rows into contiguous blocks, bucket-count
  // each block's entries per output row, turn the counts into per-block
  // starting offsets with one prefix sweep, then let each block scatter into
  // its reserved slots. Blocks are stitched in source-row order, so the
  // result is entry-for-entry the serial transpose.
  const std::vector<Range> blocks = static_chunks(
      static_cast<std::size_t>(rows_), static_cast<std::size_t>(nt));
  const int nb = static_cast<int>(blocks.size());
  const auto ncols = static_cast<std::size_t>(cols_);
  std::vector<Index> offsets(static_cast<std::size_t>(nb) * ncols, 0);
#pragma omp parallel for schedule(static, 1) num_threads(nt)
  for (int b = 0; b < nb; ++b) {
    Index* cnt = offsets.data() + static_cast<std::size_t>(b) * ncols;
    const Range rg = blocks[static_cast<std::size_t>(b)];
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        ++cnt[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
      }
    }
  }
  // counts -> starting offsets (and the output row_ptr), column-major over
  // (column, block) so each block's slot range lands after every earlier
  // block's entries for that column.
  Index pos = 0;
  for (std::size_t c = 0; c < ncols; ++c) {
    for (int b = 0; b < nb; ++b) {
      Index& slot = offsets[static_cast<std::size_t>(b) * ncols + c];
      const Index n_entries = slot;
      slot = pos;
      pos += n_entries;
    }
    t.row_ptr_[c + 1] = pos;
  }
  with_values([&](const auto* sv) {
    auto* tv = dst(sv);
#pragma omp parallel for schedule(static, 1) num_threads(nt)
    for (int b = 0; b < nb; ++b) {
      Index* next = offsets.data() + static_cast<std::size_t>(b) * ncols;
      const Range rg = blocks[static_cast<std::size_t>(b)];
      for (std::size_t i = rg.begin; i < rg.end; ++i) {
        for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
          const Index c = col_idx_[static_cast<std::size_t>(k)];
          const Index p = next[static_cast<std::size_t>(c)]++;
          t.col_idx_[static_cast<std::size_t>(p)] = static_cast<Index>(i);
          tv[static_cast<std::size_t>(p)] = sv[static_cast<std::size_t>(k)];
        }
      }
    }
  });
  return t;
}

void CsrMatrix::spmv_transpose(const Vector& x, Vector& y) const {
  assert(static_cast<Index>(x.size()) == rows_);
  y.assign(static_cast<std::size_t>(cols_), 0.0);
  with_values([&](const auto* av) {
    for (Index i = 0; i < rows_; ++i) {
      const double xi = x[static_cast<std::size_t>(i)];
      if (xi == 0.0) continue;
      for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        y[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] +=
            av[static_cast<std::size_t>(k)] * xi;
      }
    }
  });
}

void CsrMatrix::scale_rows(const Vector& s) {
  // Setup-phase only: scaling mutates fp64 assembly values (demotion to a
  // narrower stored width happens after all setup algebra).
  assert(prec_ == Precision::kF64);
  assert(static_cast<Index>(s.size()) == rows_);
  for (Index i = 0; i < rows_; ++i) {
    for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      values_[static_cast<std::size_t>(k)] *= s[static_cast<std::size_t>(i)];
    }
  }
}

double CsrMatrix::frobenius_norm() const {
  return with_values([&](const auto* av) {
    double s = 0.0;
    const auto nz = static_cast<std::size_t>(nnz());
    for (std::size_t k = 0; k < nz; ++k) {
      const double v = av[k];
      s += v * v;
    }
    return std::sqrt(s);
  });
}

bool CsrMatrix::approx_equal(const CsrMatrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  return with_values([&](const auto* av) {
    return other.with_values([&](const auto* bv) {
      for (Index i = 0; i < rows_; ++i) {
        // Merge the two sorted rows, comparing values entrywise.
        Index ka = row_ptr_[i], kb = other.row_ptr_[i];
        const Index ea = row_ptr_[i + 1], eb = other.row_ptr_[i + 1];
        while (ka < ea || kb < eb) {
          const Index ca = ka < ea ? col_idx_[static_cast<std::size_t>(ka)]
                                   : std::numeric_limits<Index>::max();
          const Index cb = kb < eb
                               ? other.col_idx_[static_cast<std::size_t>(kb)]
                               : std::numeric_limits<Index>::max();
          double va = 0.0, vb = 0.0;
          if (ca <= cb) va = av[static_cast<std::size_t>(ka++)];
          if (cb <= ca) vb = bv[static_cast<std::size_t>(kb++)];
          if (std::abs(va - vb) > tol) return false;
        }
      }
      return true;
    });
  });
}

bool CsrMatrix::rows_sorted() const {
  for (Index i = 0; i < rows_; ++i) {
    for (Index k = row_ptr_[i] + 1; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[static_cast<std::size_t>(k - 1)] >=
          col_idx_[static_cast<std::size_t>(k)]) {
        return false;
      }
    }
  }
  return true;
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  const Index* const cols = col_idx_.data();
  return with_values([&](const auto* av) {
    // Compares the stored off-diagonals on one side of the diagonal with
    // their mirrors a_ji, searched for in row j (0 when row j stores no
    // column i): no transposed copy, no allocation. Counts the mirrors found
    // and the entries on the other side.
    std::size_t found = 0, others = 0;
    const auto side_matches = [&](bool upper) {
      for (Index i = 0; i < rows_; ++i) {
        for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
          const Index j = cols[k];
          if (j == i) continue;
          if ((j > i) != upper) {
            ++others;
            continue;
          }
          const Index* const last = cols + row_ptr_[j + 1];
          const Index* const hit = std::find(cols + row_ptr_[j], last, i);
          double mirror = 0.0;
          if (hit != last) {
            ++found;
            mirror = av[hit - cols];
          }
          if (std::abs(av[k] - mirror) > tol) return false;
        }
      }
      return true;
    };
    if (!side_matches(/*upper=*/true)) return false;
    // Without duplicate columns (strictly increasing rows) each mirror found
    // is a distinct lower entry, so equal counts mean every lower entry was
    // compared already. Otherwise the lower side needs its own pass.
    if (found == others && rows_sorted()) return true;
    return side_matches(/*upper=*/false);
  });
}

double CsrMatrix::max_abs() const {
  return with_values([&](const auto* av) {
    double m = 0.0;
    const auto nz = static_cast<std::size_t>(nnz());
    for (std::size_t k = 0; k < nz; ++k) {
      m = std::max(m, std::abs(static_cast<double>(av[k])));
    }
    return m;
  });
}

std::string CsrMatrix::summary() const {
  std::ostringstream os;
  os << rows_ << " x " << cols_ << ", nnz=" << nnz();
  if (prec_ != Precision::kF64) os << ", " << precision_name(prec_);
  return os.str();
}

}  // namespace asyncmg
