#include "sparse/sellcs.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace asyncmg {

SellMatrix SellMatrix::from_csr(const CsrMatrix& a, Index chunk, Index sigma) {
  if (chunk < 1 || chunk > kMaxChunk) {
    throw std::invalid_argument("SellMatrix: chunk out of [1, kMaxChunk]");
  }
  SellMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.nnz_ = a.nnz();
  m.c_ = chunk;
  // Window: at least one chunk, whole chunks only, so each chunk is an
  // interval of one sorted window and lengths descend within it.
  Index win = std::max(sigma, chunk);
  win = (win + chunk - 1) / chunk * chunk;
  m.sigma_ = win;

  const auto n = static_cast<std::size_t>(m.rows_);
  const auto c = static_cast<std::size_t>(chunk);
  const std::size_t nslots = (n + c - 1) / c * c;
  const std::size_t nchunks = nslots / c;
  const auto rp = a.row_ptr();
  const auto row_len = [&](Index i) {
    return rp[static_cast<std::size_t>(i) + 1] - rp[static_cast<std::size_t>(i)];
  };

  m.perm_.assign(nslots, Index{-1});
  std::iota(m.perm_.begin(), m.perm_.begin() + static_cast<std::ptrdiff_t>(n),
            Index{0});
  for (std::size_t w0 = 0; w0 < n; w0 += static_cast<std::size_t>(win)) {
    const std::size_t w1 = std::min(n, w0 + static_cast<std::size_t>(win));
    std::stable_sort(m.perm_.begin() + static_cast<std::ptrdiff_t>(w0),
                     m.perm_.begin() + static_cast<std::ptrdiff_t>(w1),
                     [&](Index p, Index q) { return row_len(p) > row_len(q); });
  }

  m.slot_len_.assign(nslots, 0);
  for (std::size_t s = 0; s < n; ++s) m.slot_len_[s] = row_len(m.perm_[s]);

  m.chunk_width_.resize(nchunks);
  m.chunk_ptr_.resize(nchunks + 1);
  m.chunk_ptr_[0] = 0;
  std::size_t total = 0;
  for (std::size_t ch = 0; ch < nchunks; ++ch) {
    // Descending within the chunk: the first slot is the widest.
    const Index width = m.slot_len_[ch * c];
    m.chunk_width_[ch] = width;
    total += static_cast<std::size_t>(width) * c;
    if (total > static_cast<std::size_t>(std::numeric_limits<Index>::max())) {
      throw std::overflow_error("SellMatrix: padded entries exceed Index");
    }
    m.chunk_ptr_[ch + 1] = static_cast<Index>(total);
  }

  m.col_idx_.assign(total, 0);
  m.prec_ = a.precision();
  if (m.prec_ == Precision::kF32) {
    m.values_f32_.assign(total, 0.0f);
  } else {
    m.values_.assign(total, 0.0);
  }
  const auto ci = a.col_idx();
  a.with_values([&](const auto* av) {
    const auto scatter = [&](auto* dst_vals) {
      for (std::size_t ch = 0; ch < nchunks; ++ch) {
        const auto base = static_cast<std::size_t>(m.chunk_ptr_[ch]);
        for (std::size_t lane = 0; lane < c; ++lane) {
          const Index row = m.perm_[ch * c + lane];
          if (row < 0) continue;
          const auto kb =
              static_cast<std::size_t>(rp[static_cast<std::size_t>(row)]);
          const auto ke =
              static_cast<std::size_t>(rp[static_cast<std::size_t>(row) + 1]);
          for (std::size_t k = kb; k < ke; ++k) {
            const std::size_t dst = base + (k - kb) * c + lane;
            m.col_idx_[dst] = ci[k];
            dst_vals[dst] = av[k];
          }
        }
      }
    };
    if (m.prec_ == Precision::kF32) {
      scatter(m.values_f32_.data());
    } else {
      scatter(m.values_.data());
    }
  });

  // Contiguous-column detection: a chunk qualifies when every lane is a
  // real row of full chunk width and, at each column j, the lane columns
  // are consecutive. The stable sigma sort keeps equal-length neighbors in
  // original order, so structured-grid stencils qualify for most interior
  // chunks. Qualifying chunks multiply from ucol_base_ with unit-stride x
  // reads and never touch col_idx_.
  m.ucol_ofs_.assign(nchunks, Index{-1});
  for (std::size_t ch = 0; ch < nchunks; ++ch) {
    const Index width = m.chunk_width_[ch];
    bool contig = m.perm_[ch * c + c - 1] >= 0 &&
                  m.slot_len_[ch * c + c - 1] == width;
    const Index* cc = m.col_idx_.data() + m.chunk_ptr_[ch];
    for (Index j = 0; j < width && contig; ++j) {
      const Index b0 = cc[static_cast<std::size_t>(j) * c];
      for (std::size_t lane = 1; lane < c; ++lane) {
        if (cc[static_cast<std::size_t>(j) * c + lane] !=
            b0 + static_cast<Index>(lane)) {
          contig = false;
          break;
        }
      }
    }
    if (!contig) continue;
    m.ucol_ofs_[ch] = static_cast<Index>(m.ucol_base_.size());
    for (Index j = 0; j < width; ++j) {
      m.ucol_base_.push_back(cc[static_cast<std::size_t>(j) * c]);
    }
    ++m.n_contig_;
    m.contig_entries_ += static_cast<std::size_t>(width) * c;
  }
  // The streamed slabs come from the kKernelAlign allocator; the SIMD
  // backends rely on the bases being cache-line aligned.
  assert(is_kernel_aligned(m.col_idx_.data()));
  assert(is_kernel_aligned(m.values_.data()) &&
         is_kernel_aligned(m.values_f32_.data()));
  return m;
}

std::string SellMatrix::summary() const {
  std::ostringstream os;
  const std::size_t stored = stored_entries();
  const double pad_pct = stored == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(padded_entries()) /
                                   static_cast<double>(stored);
  const double contig_pct = stored == 0
                                ? 0.0
                                : 100.0 * static_cast<double>(contig_entries_) /
                                      static_cast<double>(stored);
  os << rows_ << " x " << cols_ << ", nnz=" << nnz_ << ", C=" << c_
     << ", sigma=" << sigma_ << ", padding=" << pad_pct
     << "%, contig=" << contig_pct << "%";
  if (prec_ != Precision::kF64) os << ", " << precision_name(prec_);
  return os.str();
}

}  // namespace asyncmg
