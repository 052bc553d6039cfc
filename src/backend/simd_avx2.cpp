// AVX2 SELL-C-σ kernels (DESIGN.md §15). Compiled with -mavx2 and
// -ffp-contract=off (CMake source properties): the contract ban plus the
// exclusive use of separate mul/sub|add intrinsics (never FMA) is what lets
// AVX2 hardware — where FMA is available and GCC's default contract=fast
// would otherwise fuse — reproduce the scalar oracle bit for bit.
//
// Vectorization runs ACROSS chunk lanes: SIMD lane l of a block holds matrix
// row perm[s0 + L + l], and column j of the chunk contributes exactly one
// product to each active lane, in ascending-j order — the same serial
// left-to-right per-row accumulation as the scalar engine, so every lane's
// result is bitwise the scalar result. Masking rules:
//   * structurally short blocks (chunk C not a multiple of 4, or trailing
//     pad slots) use masked value/column loads so nothing past the column
//     slab is read; their dead lanes are never stored, so no blending.
//   * the ragged tail (active-lane prefix shrinking with j) blends the
//     accumulator — never accumulates-through — because an inactive lane
//     must keep its exact bits (-0.0 included) until its store.
//   * gathers are masked so an inactive lane never dereferences x.

#include "backend/backend_simd.hpp"

#if defined(ASYNCMG_ENABLE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

#include "backend/sell_backend.hpp"

namespace asyncmg {
namespace detail {
namespace {

// First-n-lanes masks (n in [0, 4]).
inline __m256i mask_epi64(int n) {
  const __m256i iota = _mm256_set_epi64x(3, 2, 1, 0);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), iota);
}
inline __m128i mask_epi32(int n) {
  const __m128i iota = _mm_set_epi32(3, 2, 1, 0);
  return _mm_cmpgt_epi32(_mm_set1_epi32(n), iota);
}

// Stored-value loads widen fp32 to fp64 on load, exactly like the scalar
// engine's `double p = v[lane] * x[...]` with VT = float.
inline __m256d load_values(const double* p, int n, __m256i m64, __m128i) {
  return n == 4 ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, m64);
}
inline __m256d load_values(const float* p, int n, __m256i, __m128i m32) {
  const __m128 f = n == 4 ? _mm_loadu_ps(p) : _mm_maskload_ps(p, m32);
  return _mm256_cvtps_pd(f);
}

template <class VT, class Op>
void apply_chunks_avx2(const SellView& v, const VT* va, const double* x,
                       const Op& op, std::size_t c0, std::size_t c1) {
  const Index c = v.chunk;
  for (std::size_t ch = c0; ch < c1; ++ch) {
    const std::size_t s0 = ch * static_cast<std::size_t>(c);
    // Pad slots (perm == -1) trail the final chunk; real slots before them
    // all get an accumulator, even empty rows (their seed is the result).
    Index lanes = c;
    while (lanes > 0 &&
           v.perm[s0 + static_cast<std::size_t>(lanes) - 1] < 0) {
      --lanes;
    }
    const VT* vals = va + v.chunk_ptr[ch];
    const Index* cols = v.col_idx + v.chunk_ptr[ch];
    const Index* ub =
        v.ucol_ofs[ch] >= 0 ? v.ucol_base + v.ucol_ofs[ch] : nullptr;

    // One column's products for lanes [L, L+n): value load, x fetch
    // (unit-stride on the contiguous fast path, masked gather otherwise),
    // separate multiply — never an FMA.
    const auto column = [&](Index j, Index L, int n, __m256i m64,
                            __m128i m32) -> __m256d {
      const std::size_t ofs = static_cast<std::size_t>(j) *
                                  static_cast<std::size_t>(c) +
                              static_cast<std::size_t>(L);
      const __m256d vv = load_values(vals + ofs, n, m64, m32);
      __m256d xv;
      if (ub != nullptr) {
        const double* xs =
            x + static_cast<std::size_t>(ub[j]) + static_cast<std::size_t>(L);
        xv = n == 4 ? _mm256_loadu_pd(xs) : _mm256_maskload_pd(xs, m64);
      } else {
        const Index* cp = cols + ofs;
        const __m128i ci =
            n == 4 ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(cp))
                   : _mm_maskload_epi32(reinterpret_cast<const int*>(cp),
                                        m32);
        xv = n == 4
                 ? _mm256_i32gather_pd(x, ci, 8)
                 : _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, ci,
                                            _mm256_castsi256_pd(m64), 8);
      }
      return _mm256_mul_pd(vv, xv);
    };

    const auto seed_acc = [&](Index L, int nl) -> __m256d {
      alignas(32) double seed[4] = {0.0, 0.0, 0.0, 0.0};
      for (int l = 0; l < nl; ++l) {
        seed[l] = op.init(v.perm[s0 + static_cast<std::size_t>(L + l)]);
      }
      return _mm256_load_pd(seed);
    };

    // Runs block [L, L+nl) from column j0 with accumulator acc (already
    // holding the seed plus columns [0, j0)), then stores. Per-lane order
    // is ascending j throughout, whichever path fed j0.
    const auto finish_block = [&](Index L, int nl, Index j0, __m256d acc) {
      const Index len_hi = v.slot_len[s0 + static_cast<std::size_t>(L)];
      const Index len_lo =
          v.slot_len[s0 + static_cast<std::size_t>(L + nl) - 1];
      const __m256i lm64 = mask_epi64(nl);
      const __m128i lm32 = mask_epi32(nl);
      Index j = j0;
      // Columns where all nl stored lanes are active: accumulate without
      // blending (lanes >= nl are never stored).
      for (; j < len_lo; ++j) {
        const __m256d p = column(j, L, nl, lm64, lm32);
        if constexpr (Op::kSubtract) {
          acc = _mm256_sub_pd(acc, p);
        } else {
          acc = _mm256_add_pd(acc, p);
        }
      }
      // Ragged tail: slot lengths descend within the chunk, so the active
      // lanes form a shrinking prefix; blend keeps exhausted lanes' bits.
      int na = nl;
      for (; j < len_hi; ++j) {
        while (na > 0 &&
               v.slot_len[s0 + static_cast<std::size_t>(L + na) - 1] <= j) {
          --na;
        }
        const __m256i am64 = mask_epi64(na);
        const __m128i am32 = mask_epi32(na);
        const __m256d p = column(j, L, na, am64, am32);
        __m256d upd;
        if constexpr (Op::kSubtract) {
          upd = _mm256_sub_pd(acc, p);
        } else {
          upd = _mm256_add_pd(acc, p);
        }
        acc = _mm256_blendv_pd(acc, upd, _mm256_castsi256_pd(am64));
      }

      alignas(32) double out[4];
      _mm256_store_pd(out, acc);
      for (int l = 0; l < nl; ++l) {
        op.store(v.perm[s0 + static_cast<std::size_t>(L + l)], out[l]);
      }
    };

    // Paired blocks first: one accumulator chain per 4 rows is latency-
    // bound on the sub/add (the gathers overlap fine), so run two blocks'
    // chains in the shared columns where both are fully active. Slot
    // lengths descend, so that shared range is the second block's len_lo.
    Index L = 0;
    const __m256i f64 = mask_epi64(4);
    const __m128i f32 = mask_epi32(4);
    for (; L + 8 <= lanes; L += 8) {
      const Index shared = v.slot_len[s0 + static_cast<std::size_t>(L) + 7];
      __m256d a0 = seed_acc(L, 4);
      __m256d a1 = seed_acc(L + 4, 4);
      for (Index j = 0; j < shared; ++j) {
        const __m256d p0 = column(j, L, 4, f64, f32);
        const __m256d p1 = column(j, L + 4, 4, f64, f32);
        if constexpr (Op::kSubtract) {
          a0 = _mm256_sub_pd(a0, p0);
          a1 = _mm256_sub_pd(a1, p1);
        } else {
          a0 = _mm256_add_pd(a0, p0);
          a1 = _mm256_add_pd(a1, p1);
        }
      }
      finish_block(L, 4, shared, a0);
      finish_block(L + 4, 4, shared, a1);
    }
    for (; L < lanes; L += 4) {
      const int nl = static_cast<int>(std::min<Index>(4, lanes - L));
      finish_block(L, nl, 0, seed_acc(L, nl));
    }
  }
}

struct Avx2Apply {
  template <class VT, class Op>
  void operator()(const SellView& v, const VT* va, const double* x,
                  const Op& op, std::size_t c0, std::size_t c1) const {
    apply_chunks_avx2(v, va, x, op, c0, c1);
  }
};

}  // namespace

const KernelBackend* avx2_backend() {
  static const SellBackend<BackendKind::kAvx2, Avx2Apply> be;
  return &be;
}

}  // namespace detail
}  // namespace asyncmg

#else  // !ASYNCMG_ENABLE_AVX2

namespace asyncmg {
namespace detail {

const KernelBackend* avx2_backend() { return nullptr; }

}  // namespace detail
}  // namespace asyncmg

#endif
