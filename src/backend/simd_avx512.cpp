// AVX-512F SELL-C-σ kernels (DESIGN.md §15). Compiled with -mavx512f and
// -ffp-contract=off; like the AVX2 TU, only separate mul and masked add/sub
// intrinsics are used — never FMA — so the per-lane arithmetic is exactly
// the scalar oracle's mul-then-accumulate sequence.
//
// Same lane-per-row layout as simd_avx2.cpp, with 8 fp64 lanes per block.
// AVX-512 masking simplifies both rules AVX2 needs two mechanisms for:
// masked loads/gathers architecturally never touch masked-off elements, and
// _mm512_mask_add/sub_pd leaves an inactive lane's accumulator bits intact,
// so one __mmask8 covers structural short blocks and the ragged active-lane
// tail alike. Only AVX-512F forms are used (512-bit masked loads plus a cast
// for the 8x i32 index vector), so the TU needs no VL/BW/DQ extensions.

#include "backend/backend_simd.hpp"

#if defined(ASYNCMG_ENABLE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

#include "backend/sell_backend.hpp"

namespace asyncmg {
namespace detail {
namespace {

// First-n-lanes mask (n in [0, 8]).
inline __mmask8 maskn(int n) {
  return static_cast<__mmask8>((1u << n) - 1u);
}

inline __m512d load_values(const double* p, __mmask8 m) {
  return _mm512_maskz_loadu_pd(m, p);
}
inline __m512d load_values(const float* p, __mmask8 m) {
  // 512-bit masked float load (mask <= 0xFF reads at most 8 floats), then
  // widen the low 8 to fp64 — the scalar engine's load-time widening.
  const __m256 f = _mm512_castps512_ps256(
      _mm512_maskz_loadu_ps(static_cast<__mmask16>(m), p));
  return _mm512_cvtps_pd(f);
}

template <class VT, class Op>
void apply_chunks_avx512(const SellView& v, const VT* va, const double* x,
                         const Op& op, std::size_t c0, std::size_t c1) {
  const Index c = v.chunk;
  for (std::size_t ch = c0; ch < c1; ++ch) {
    const std::size_t s0 = ch * static_cast<std::size_t>(c);
    Index lanes = c;
    while (lanes > 0 &&
           v.perm[s0 + static_cast<std::size_t>(lanes) - 1] < 0) {
      --lanes;
    }
    const VT* vals = va + v.chunk_ptr[ch];
    const Index* cols = v.col_idx + v.chunk_ptr[ch];
    const Index* ub =
        v.ucol_ofs[ch] >= 0 ? v.ucol_base + v.ucol_ofs[ch] : nullptr;

    // One column's products for the mask's lanes of block [L, L+8);
    // masked-off lanes never read memory and their product lanes are zeroed
    // (and then left untouched by the masked accumulates below).
    const auto column = [&](Index j, Index L, __mmask8 m) -> __m512d {
      const std::size_t ofs = static_cast<std::size_t>(j) *
                                  static_cast<std::size_t>(c) +
                              static_cast<std::size_t>(L);
      const __m512d vv = load_values(vals + ofs, m);
      __m512d xv;
      if (ub != nullptr) {
        const double* xs =
            x + static_cast<std::size_t>(ub[j]) + static_cast<std::size_t>(L);
        xv = _mm512_maskz_loadu_pd(m, xs);
      } else {
        const __m256i ci = _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(
            static_cast<__mmask16>(m),
            reinterpret_cast<const void*>(cols + ofs)));
        xv = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m, ci, x, 8);
      }
      return _mm512_mul_pd(vv, xv);
    };

    const auto seed_acc = [&](Index L, int nl) -> __m512d {
      alignas(64) double seed[8] = {0.0};
      for (int l = 0; l < nl; ++l) {
        seed[l] = op.init(v.perm[s0 + static_cast<std::size_t>(L + l)]);
      }
      return _mm512_load_pd(seed);
    };

    // Runs block [L, L+nl) from column j0 with accumulator acc (already
    // holding the seed plus columns [0, j0)), then stores. Per-lane order
    // is ascending j throughout, whichever path fed j0.
    const auto finish_block = [&](Index L, int nl, Index j0, __m512d acc) {
      const Index len_hi = v.slot_len[s0 + static_cast<std::size_t>(L)];
      const Index len_lo =
          v.slot_len[s0 + static_cast<std::size_t>(L + nl) - 1];
      const __mmask8 lm = maskn(nl);

      const auto accumulate = [&](__m512d p, __mmask8 m) {
        if constexpr (Op::kSubtract) {
          acc = _mm512_mask_sub_pd(acc, m, acc, p);
        } else {
          acc = _mm512_mask_add_pd(acc, m, acc, p);
        }
      };

      Index j = j0;
      for (; j < len_lo; ++j) accumulate(column(j, L, lm), lm);
      // Ragged tail: the active lanes form a shrinking prefix (slot lengths
      // descend within the chunk); the mask shrinks with them.
      int na = nl;
      for (; j < len_hi; ++j) {
        while (na > 0 &&
               v.slot_len[s0 + static_cast<std::size_t>(L + na) - 1] <= j) {
          --na;
        }
        const __mmask8 am = maskn(na);
        accumulate(column(j, L, am), am);
      }

      alignas(64) double out[8];
      _mm512_store_pd(out, acc);
      for (int l = 0; l < nl; ++l) {
        op.store(v.perm[s0 + static_cast<std::size_t>(L + l)], out[l]);
      }
    };

    // Paired blocks first: one accumulator chain per 8 rows is latency-
    // bound on the masked sub/add (the gathers overlap fine), so run two
    // blocks' chains in the shared columns where both are fully active.
    // Slot lengths descend, so that range is the second block's len_lo.
    Index L = 0;
    const __mmask8 full = maskn(8);
    for (; L + 16 <= lanes; L += 16) {
      const Index shared = v.slot_len[s0 + static_cast<std::size_t>(L) + 15];
      __m512d a0 = seed_acc(L, 8);
      __m512d a1 = seed_acc(L + 8, 8);
      for (Index j = 0; j < shared; ++j) {
        const __m512d p0 = column(j, L, full);
        const __m512d p1 = column(j, L + 8, full);
        if constexpr (Op::kSubtract) {
          a0 = _mm512_sub_pd(a0, p0);
          a1 = _mm512_sub_pd(a1, p1);
        } else {
          a0 = _mm512_add_pd(a0, p0);
          a1 = _mm512_add_pd(a1, p1);
        }
      }
      finish_block(L, 8, shared, a0);
      finish_block(L + 8, 8, shared, a1);
    }
    for (; L < lanes; L += 8) {
      const int nl = static_cast<int>(std::min<Index>(8, lanes - L));
      finish_block(L, nl, 0, seed_acc(L, nl));
    }
  }
}

struct Avx512Apply {
  template <class VT, class Op>
  void operator()(const SellView& v, const VT* va, const double* x,
                  const Op& op, std::size_t c0, std::size_t c1) const {
    apply_chunks_avx512(v, va, x, op, c0, c1);
  }
};

}  // namespace

const KernelBackend* avx512_backend() {
  static const SellBackend<BackendKind::kAvx512, Avx512Apply> be;
  return &be;
}

}  // namespace detail
}  // namespace asyncmg

#else  // !ASYNCMG_ENABLE_AVX512

namespace asyncmg {
namespace detail {

const KernelBackend* avx512_backend() { return nullptr; }

}  // namespace detail
}  // namespace asyncmg

#endif
