#include "backend/backend.hpp"

#include <omp.h>

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "backend/backend_simd.hpp"
#include "backend/sell_backend.hpp"
#include "sparse/parallel.hpp"
#include "util/partition.hpp"
#include "util/thread_context.hpp"

namespace asyncmg {

namespace {

// ---------------------------------------------------------------------------
// CSR kernels: one static row split, shared by every backend.
// ---------------------------------------------------------------------------

/// Runs `body(lo, hi)` over [0, n): one static OpenMP row partition when
/// `parallel` and solve_omp_eligible(n) allow, else the whole range inline.
/// Rows write disjoint outputs, so the partition never changes the result.
/// Each body is a plain call on raw pointers from inside the region, which
/// keeps the aliasing information the vectorizer needs (an outlined loop
/// body measures ~30% slower at one thread).
template <class Body>
void for_row_split(Index n, bool parallel, const Body& body) {
  if (!parallel || !solve_omp_eligible(n)) {
    body(Index{0}, n);
    return;
  }
#pragma omp parallel
  {
    const Range rg =
        static_chunk(static_cast<std::size_t>(n),
                     static_cast<std::size_t>(omp_get_num_threads()),
                     static_cast<std::size_t>(omp_get_thread_num()));
    body(static_cast<Index>(rg.begin), static_cast<Index>(rg.end));
  }
}

// Row-range bodies of the fused CSR kernels, templated over the stored
// value type (double/float per the matrix's Precision): values widen to
// double on load and accumulators stay double.

template <class AV>
void diag_sweep_rows(const Index* rp, const Index* ci, const AV* av,
                     const double* dp, const double* bp, const double* xi,
                     double* xo, Index lo, Index hi) {
  for (Index i = lo; i < hi; ++i) {
    double s = bp[i];
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      s -= av[k] * xi[ci[k]];
    }
    xo[i] = xi[i] + dp[i] * s;
  }
}

template <class AV>
void sub_spmv_rows(const Index* rp, const Index* ci, const AV* av,
                   const double* ep, const double* rr, double* tp, Index lo,
                   Index hi) {
  for (Index i = lo; i < hi; ++i) {
    double s = 0.0;
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      s += av[k] * ep[ci[k]];
    }
    tp[i] = rr[i] - s;
  }
}

// ---------------------------------------------------------------------------
// Scalar SELL chunk loop: the portable counterpart of apply_chunks_avx2 /
// apply_chunks_avx512, run through the same skeleton (sell_backend.hpp).
// ---------------------------------------------------------------------------

/// Runs chunks [c0, c1) of `v` against `op`. `VT` is the stored value type;
/// products widen to double and the per-lane accumulators stay double. Per
/// lane, entries are visited in CSR order and padding is never read, which
/// is the whole bitwise argument against CsrMatrix.
template <class VT, class Op>
void apply_chunks_scalar(const SellView& v, const VT* va, const double* x,
                         const Op& op, std::size_t c0, std::size_t c1) {
  const Index c = v.chunk;
  const Index* const perm = v.perm;
  const Index* const slot_len = v.slot_len;
  double acc[SellMatrix::kMaxChunk];
  for (std::size_t ch = c0; ch < c1; ++ch) {
    const std::size_t s0 = ch * static_cast<std::size_t>(c);
    // Pad slots (perm == -1) trail the final chunk; real slots before them
    // all get an accumulator, even empty rows (their seed is the result).
    Index lanes = c;
    while (lanes > 0 && perm[s0 + static_cast<std::size_t>(lanes) - 1] < 0) {
      --lanes;
    }
    for (Index lane = 0; lane < lanes; ++lane) {
      acc[lane] = op.init(perm[s0 + static_cast<std::size_t>(lane)]);
    }
    const VT* vals = va + v.chunk_ptr[ch];
    const Index* cols = v.col_idx + v.chunk_ptr[ch];
    const Index width = v.chunk_width[ch];
    if (v.ucol_ofs[ch] >= 0) {
      // Contiguous-column chunk (SellMatrix::contiguous_chunks()): every
      // lane is full width and the C columns at each j are consecutive, so
      // x is read unit-stride from one base per column and the col_idx
      // stream is skipped entirely. Constant trip counts let the compiler
      // unroll and keep the accumulators in registers. The per-lane
      // accumulation order is identical to the general path below.
      const Index* ub = v.ucol_base + v.ucol_ofs[ch];
      for (Index j = 0; j < width; ++j) {
        const VT* vj = vals + static_cast<std::size_t>(j) * c;
        const double* xs = x + static_cast<std::size_t>(ub[j]);
        for (Index lane = 0; lane < c; ++lane) {
          const double p = vj[lane] * xs[lane];
          if constexpr (Op::kSubtract) {
            acc[lane] -= p;
          } else {
            acc[lane] += p;
          }
        }
      }
    } else if (lanes == c &&
               slot_len[s0 + static_cast<std::size_t>(c) - 1] == width) {
      // Uniform chunk (every lane holds `width` entries — the common case
      // after the sigma sort): constant-trip lane loop with no prefix
      // tracking. Identical per-lane accumulation order to the general path.
      for (Index j = 0; j < width; ++j) {
        const VT* vj = vals + static_cast<std::size_t>(j) * c;
        const Index* cc = cols + static_cast<std::size_t>(j) * c;
        for (Index lane = 0; lane < c; ++lane) {
          const double p = vj[lane] * x[static_cast<std::size_t>(cc[lane])];
          if constexpr (Op::kSubtract) {
            acc[lane] -= p;
          } else {
            acc[lane] += p;
          }
        }
      }
    } else {
      Index active = lanes;
      for (Index j = 0; j < width; ++j) {
        // Slot lengths are descending within the chunk, so the lanes still
        // holding entries at column j form a prefix; padding is never read.
        while (active > 0 &&
               slot_len[s0 + static_cast<std::size_t>(active) - 1] <= j) {
          --active;
        }
        const VT* vj = vals + static_cast<std::size_t>(j) * c;
        const Index* cc = cols + static_cast<std::size_t>(j) * c;
        for (Index lane = 0; lane < active; ++lane) {
          const double p = vj[lane] * x[static_cast<std::size_t>(cc[lane])];
          if constexpr (Op::kSubtract) {
            acc[lane] -= p;
          } else {
            acc[lane] += p;
          }
        }
      }
    }
    for (Index lane = 0; lane < lanes; ++lane) {
      op.store(perm[s0 + static_cast<std::size_t>(lane)], acc[lane]);
    }
  }
}

struct ScalarApply {
  template <class VT, class Op>
  void operator()(const SellView& v, const VT* va, const double* x,
                  const Op& op, std::size_t c0, std::size_t c1) const {
    apply_chunks_scalar(v, va, x, op, c0, c1);
  }
};

using ScalarBackend = detail::SellBackend<BackendKind::kScalar, ScalarApply>;

}  // namespace

void KernelBackend::csr_spmv(const CsrMatrix& a, const Vector& x, Vector& y,
                             bool parallel) const {
  assert(static_cast<Index>(x.size()) == a.cols());
  y.resize(static_cast<std::size_t>(a.rows()));
  for_row_split(a.rows(), parallel,
                [&](Index lo, Index hi) { a.spmv_rows(x, y, lo, hi); });
}

void KernelBackend::csr_spmv_rows(const CsrMatrix& a, const Vector& x,
                                  Vector& y, Index begin, Index end) const {
  a.spmv_rows(x, y, begin, end);
}

void KernelBackend::csr_spmv_add(const CsrMatrix& a, const Vector& x,
                                 Vector& y, double alpha,
                                 bool parallel) const {
  for_row_split(a.rows(), parallel, [&](Index lo, Index hi) {
    a.spmv_add_rows(x, y, alpha, lo, hi);
  });
}

void KernelBackend::csr_residual(const CsrMatrix& a, const Vector& b,
                                 const Vector& x, Vector& r,
                                 bool parallel) const {
  r.resize(static_cast<std::size_t>(a.rows()));
  for_row_split(a.rows(), parallel,
                [&](Index lo, Index hi) { a.residual_rows(b, x, r, lo, hi); });
}

void KernelBackend::csr_residual_rows(const CsrMatrix& a, const Vector& b,
                                      const Vector& x, Vector& r, Index begin,
                                      Index end) const {
  a.residual_rows(b, x, r, begin, end);
}

void KernelBackend::csr_diag_sweep(const CsrMatrix& a, const Vector& d,
                                   const Vector& b, const Vector& x_in,
                                   Vector& x_out, bool parallel) const {
  assert(a.rows() == a.cols() && static_cast<Index>(d.size()) == a.rows() &&
         static_cast<Index>(b.size()) == a.rows() &&
         static_cast<Index>(x_in.size()) == a.rows() && &x_in != &x_out);
  x_out.resize(static_cast<std::size_t>(a.rows()));
  const Index* const rp = a.row_ptr().data();
  const Index* const ci = a.col_idx().data();
  const double* const dp = d.data();
  const double* const bp = b.data();
  const double* const xi = x_in.data();
  double* const xo = x_out.data();
  a.with_values([&](const auto* av) {
    for_row_split(a.rows(), parallel, [&](Index lo, Index hi) {
      diag_sweep_rows(rp, ci, av, dp, bp, xi, xo, lo, hi);
    });
  });
}

void KernelBackend::csr_sub_spmv(const CsrMatrix& a, const Vector& r,
                                 const Vector& e, Vector& tmp,
                                 bool parallel) const {
  assert(static_cast<Index>(r.size()) == a.rows() &&
         static_cast<Index>(e.size()) == a.cols());
  tmp.resize(static_cast<std::size_t>(a.rows()));
  const Index* const rp = a.row_ptr().data();
  const Index* const ci = a.col_idx().data();
  const double* const ep = e.data();
  const double* const rr = r.data();
  double* const tp = tmp.data();
  a.with_values([&](const auto* av) {
    for_row_split(a.rows(), parallel, [&](Index lo, Index hi) {
      sub_spmv_rows(rp, ci, av, ep, rr, tp, lo, hi);
    });
  });
}

double KernelBackend::csr_residual_norm_sq(const CsrMatrix& a,
                                           const Vector& b, const Vector& x,
                                           Vector& r, bool parallel) const {
  csr_residual(a, b, x, r, parallel);
  double sumsq = 0.0;
  for (const double v : r) sumsq += v * v;
  return sumsq;
}

void KernelBackend::restrict_apply(const CsrMatrix& rt, const Vector& x,
                                   Vector& y, bool parallel) const {
  csr_spmv(rt, x, y, parallel);
}

void KernelBackend::prolong_add(const CsrMatrix& p, const Vector& e_c,
                                Vector& e, bool parallel) const {
  csr_spmv_add(p, e_c, e, 1.0, parallel);
}

void KernelBackend::prepare_workspace(Vector& v, std::size_t n) const {
  v.resize(n);
  if (this_thread_is_pool_worker() ||
      static_cast<Index>(n) < kSetupSerialCutoff) {
    return;
  }
  double* const p = v.data();
  const auto in = static_cast<Index>(n);
#pragma omp parallel for schedule(static)
  for (Index i = 0; i < in; ++i) p[static_cast<std::size_t>(i)] = 0.0;
}

namespace detail {

// The probes live here (not in the SIMD TUs) so they exist even when those
// TUs are stubs; __builtin_cpu_supports checks CPUID plus the OS XCR0 state.
bool cpu_supports_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_supports_avx512f() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

}  // namespace detail

namespace {

const KernelBackend* simd_backend(BackendKind k) {
  switch (k) {
    case BackendKind::kAvx2:
      return detail::avx2_backend();
    case BackendKind::kAvx512:
      return detail::avx512_backend();
    default:
      return nullptr;
  }
}

/// One stderr line per distinct mishap slot; services resolve a backend per
/// setup, so the fallback warning must not spam.
bool warn_once(int slot) {
  static std::atomic<unsigned> warned{0};
  const unsigned bit = 1u << slot;
  return (warned.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
}

bool parse_backend_kind(const char* s, BackendKind& out) {
  for (const BackendKind k :
       {BackendKind::kAuto, BackendKind::kScalar, BackendKind::kAvx2,
        BackendKind::kAvx512}) {
    if (std::strcmp(s, backend_kind_name(k)) == 0) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

bool backend_compiled(BackendKind k) {
  switch (k) {
    case BackendKind::kScalar:
      return true;
    case BackendKind::kAvx2:
    case BackendKind::kAvx512:
      return simd_backend(k) != nullptr;
    case BackendKind::kAuto:
      return false;
  }
  return false;
}

bool backend_supported(BackendKind k) {
  if (!backend_compiled(k)) return false;
  switch (k) {
    case BackendKind::kAvx2:
      return detail::cpu_supports_avx2();
    case BackendKind::kAvx512:
      return detail::cpu_supports_avx512f();
    default:
      return true;
  }
}

BackendKind detect_backend() {
  if (backend_supported(BackendKind::kAvx512)) return BackendKind::kAvx512;
  if (backend_supported(BackendKind::kAvx2)) return BackendKind::kAvx2;
  return BackendKind::kScalar;
}

BackendKind resolve_backend_kind(BackendKind requested) {
  BackendKind want = requested;
  if (want == BackendKind::kAuto) {
    if (const char* env = std::getenv("ASYNCMG_BACKEND");
        env != nullptr && *env != '\0') {
      if (!parse_backend_kind(env, want)) {
        if (warn_once(0)) {
          std::fprintf(stderr,
                       "asyncmg: ignoring invalid ASYNCMG_BACKEND='%s'"
                       " (want scalar|avx2|avx512|auto)\n",
                       env);
        }
        want = BackendKind::kAuto;
      }
    }
  }
  if (want == BackendKind::kAuto) return detect_backend();
  if (backend_supported(want)) return want;
  const BackendKind fell = detect_backend();
  if (warn_once(want == BackendKind::kAvx512 ? 1 : 2)) {
    std::fprintf(stderr,
                 "asyncmg: kernel backend '%s' %s on this host;"
                 " falling back to '%s'\n",
                 backend_kind_name(want),
                 backend_compiled(want) ? "is not supported by the CPU"
                                        : "was not compiled into this binary",
                 backend_kind_name(fell));
  }
  return fell;
}

const KernelBackend& scalar_backend() {
  static const ScalarBackend be;
  return be;
}

const KernelBackend& backend_for(BackendKind k) {
  if (k == BackendKind::kAvx2 || k == BackendKind::kAvx512) {
    if (backend_supported(k)) return *simd_backend(k);
  }
  return scalar_backend();
}

const KernelBackend& resolve_backend(const KernelEngineOptions& opts) {
  return backend_for(resolve_backend_kind(opts.backend));
}

std::string supported_backends_string() {
  std::string s = "scalar";
  for (const BackendKind k : {BackendKind::kAvx2, BackendKind::kAvx512}) {
    if (backend_supported(k)) {
      s += ' ';
      s += backend_kind_name(k);
    }
  }
  return s;
}

}  // namespace asyncmg
