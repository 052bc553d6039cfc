#pragma once
// SELL-C-σ sparse format for the solve-phase kernel engine.
//
// Sliced ELLPACK with row sorting (Kreutzer et al.): rows are sorted by
// descending nonzero count inside windows of σ rows, grouped into chunks of
// C rows, and each chunk is stored column-major (entry j of all C rows
// adjacent in memory), padded to the chunk's widest row. The column-major
// layout gives the SpMV inner loop C independent accumulators and unit-
// stride value/column loads, which is what the per-level smoothing sweeps
// are bottlenecked on in CSR form; σ-window sorting keeps the permutation
// local so the padding stays small without destroying access locality.
//
// This class is the format only: conversion, accessors, and the raw view()
// the kernels read. The SELL kernels live in the kernel backends
// (backend/backend.hpp), which must be bit-identical to the CsrMatrix
// kernels on the source matrix: per row, entries are visited in exactly the
// CSR order (ascending column), padding lanes are never read, and each
// output row is written by exactly one chunk, so the result does not depend
// on the thread count. Vectors stay in original row numbering; the
// permutation is applied on the fly through perm().

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"
#include "util/aligned.hpp"

namespace asyncmg {

/// Read-only raw view of the SELL storage for the kernel backends
/// (src/backend). Pointers alias the owning SellMatrix
/// and stay valid while it is alive and unmodified. Exactly one of
/// `values` / `values_f32` is non-null, per `prec`. The value and column
/// slabs are kKernelAlign-aligned (util/aligned.hpp).
struct SellView {
  Index rows = 0;
  Index cols = 0;
  Index chunk = 0;                    // C, the lane count per chunk
  Precision prec = Precision::kF64;
  std::size_t nchunks = 0;
  const Index* perm = nullptr;        // slot -> row; -1 pad slots trail
  const Index* slot_len = nullptr;    // nnz per slot (descending per chunk)
  const Index* chunk_ptr = nullptr;   // entry offset per chunk (nchunks+1)
  const Index* chunk_width = nullptr; // widest row per chunk
  const Index* col_idx = nullptr;     // column-major per chunk, padded
  const double* values = nullptr;     // kF64 storage
  const float* values_f32 = nullptr;  // kF32 storage
  const Index* ucol_ofs = nullptr;    // per chunk: ucol_base offset or -1
  const Index* ucol_base = nullptr;   // x base index per contiguous column
};

class SellMatrix {
 public:
  SellMatrix() = default;

  /// Converts a CSR matrix. `chunk` is C (rows per chunk, the accumulator
  /// width, at most kMaxChunk), `sigma` the sorting-window size in rows
  /// (clamped to at least `chunk` and rounded up to a multiple of it, so
  /// every chunk is descending-sorted and the active-lane prefix trick
  /// applies). The sort is stable, so matrices with uniform row lengths
  /// (stencils) keep the identity permutation and padding-free chunks.
  /// The stored scalar width is inherited from `a` (fp32 coarse levels stay
  /// fp32 in SELL form).
  static SellMatrix from_csr(const CsrMatrix& a, Index chunk = 8,
                             Index sigma = 256);

  /// Upper bound on C: the per-chunk accumulators live on the kernel stack.
  static constexpr Index kMaxChunk = 64;

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return nnz_; }
  Index chunk() const { return c_; }
  Index sigma() const { return sigma_; }
  bool empty() const { return rows_ == 0; }

  /// Stored scalar width, inherited from the source CsrMatrix at from_csr.
  Precision precision() const { return prec_; }

  /// Stored entries including padding; padded_entries() = stored - nnz.
  std::size_t stored_entries() const {
    return prec_ == Precision::kF32 ? values_f32_.size() : values_.size();
  }
  std::size_t padded_entries() const {
    return stored_entries() - static_cast<std::size_t>(nnz_);
  }

  /// slot -> original row index (identity when sigma disables sorting or
  /// all row lengths are equal).
  std::span<const Index> perm() const { return perm_; }

  /// Chunks on the contiguous-column fast path: every lane holds the full
  /// chunk width and at each column j the C lane columns are consecutive
  /// (cc[j][lane] == cc[j][0] + lane). Stencil matrices on structured grids
  /// hit this for most interior chunks; such chunks read x with one
  /// unit-stride load per column and never touch the col_idx stream.
  std::size_t contiguous_chunks() const { return n_contig_; }

  /// Approximate bytes streamed by one matrix pass (values at the stored
  /// scalar width + columns + chunk metadata), for the telemetry bytes-moved
  /// counters. Contiguous chunks skip the col_idx stream and read one base
  /// index per column.
  std::size_t pass_bytes() const {
    return stored_entries() * scalar_width(prec_) +
           (stored_entries() - contig_entries_) * sizeof(Index) +
           (ucol_base_.size() + chunk_ptr_.size() + chunk_width_.size() +
            slot_len_.size() + perm_.size()) *
               sizeof(Index);
  }

  /// Raw storage view for the src/backend kernels.
  SellView view() const {
    SellView v;
    v.rows = rows_;
    v.cols = cols_;
    v.chunk = c_;
    v.prec = prec_;
    v.nchunks = chunk_width_.size();
    v.perm = perm_.data();
    v.slot_len = slot_len_.data();
    v.chunk_ptr = chunk_ptr_.data();
    v.chunk_width = chunk_width_.data();
    v.col_idx = col_idx_.data();
    if (prec_ == Precision::kF32) {
      v.values_f32 = values_f32_.data();
    } else {
      v.values = values_.data();
    }
    v.ucol_ofs = ucol_ofs_.data();
    v.ucol_base = ucol_base_.data();
    return v;
  }

  /// "rows x cols, nnz=…, C=…, sigma=…, padding=…%" summary line.
  std::string summary() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  Index nnz_ = 0;
  Index c_ = 8;
  Index sigma_ = 0;
  Precision prec_ = Precision::kF64;
  std::vector<Index> perm_;        // slot -> original row; -1 for pad slots
  std::vector<Index> slot_len_;    // nnz per slot (descending per chunk)
  std::vector<Index> chunk_ptr_;   // entry offset per chunk (size nchunks+1)
  std::vector<Index> chunk_width_; // widest row per chunk
  // The streamed slabs are cache-line aligned so the SIMD backends' vector
  // loads never split a line (util/aligned.hpp).
  AlignedVector<Index> col_idx_;   // column-major per chunk, padded
  AlignedVector<double> values_;   // padding is 0.0, never read (kF64)
  AlignedVector<float> values_f32_;  // stored values when prec_ == kF32
  // Contiguous-column fast path (see contiguous_chunks()): ucol_ofs_[ch] is
  // -1 for general chunks, else the offset into ucol_base_ of the chunk's
  // chunk_width_[ch] per-column base indices.
  std::vector<Index> ucol_ofs_;    // per chunk: offset into ucol_base_ or -1
  std::vector<Index> ucol_base_;   // x base index per contiguous column
  std::size_t n_contig_ = 0;       // chunks on the fast path
  std::size_t contig_entries_ = 0; // stored entries covered by the fast path
};

}  // namespace asyncmg
