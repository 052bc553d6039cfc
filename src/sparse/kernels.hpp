#pragma once
// Solve-phase kernel engine configuration shared by the multigrid cycles,
// smoothers, and the async runtime drivers (DESIGN.md section 10): the
// backend selector, the engine options, the per-level format heuristic, the
// bytes-per-pass traffic model, and the OpenMP eligibility gate. The kernels
// themselves live in the kernel backends (backend/backend.hpp).

#include <cstddef>
#include <cstdint>

#include "sparse/csr.hpp"
#include "sparse/sellcs.hpp"
#include "sparse/types.hpp"

namespace asyncmg {

/// Which kernel backend (src/backend) executes the solve-phase kernel set.
/// kScalar is the portable OpenMP CSR/SELL engine and the SIMD oracle;
/// the SIMD kinds hand-vectorize the SELL-C-sigma kernels across chunk
/// lanes (one row per lane, so per-row accumulation order — and therefore
/// every bit of the result — matches the oracle). kAuto resolves at runtime
/// to the widest ISA both compiled in and reported by the CPU, overridable
/// with ASYNCMG_BACKEND=scalar|avx2|avx512.
enum class BackendKind : std::uint8_t {
  kAuto = 0,
  kScalar,
  kAvx2,
  kAvx512,
};

/// Stable lowercase name ("auto", "scalar", "avx2", "avx512"); also the
/// accepted ASYNCMG_BACKEND values.
const char* backend_kind_name(BackendKind k);

/// SELL chunk height C (accumulator width). C=16 measured best-or-tied for
/// V(1,1) cycles on the 27-point Laplacian across C in {8,16,32,64}
/// (bench/solve_phase); wider chunks trade contiguous-column coverage for
/// more accumulators without a reliable cycle-level win.
inline constexpr Index kSellChunk = 16;

/// SELL sorting window sigma. A small window keeps the permutation local
/// (sorted rows stay near their neighbors, so x accesses keep the CSR
/// locality) while still grouping equal-length stencil rows into full-width
/// chunks.
inline constexpr Index kSellSigma = 256;

/// Configuration of the solve-phase kernel engine.
struct KernelEngineOptions {
  /// Kernel backend request. kAuto picks the widest supported ISA; an
  /// explicit kind pins it (bypassing the ASYNCMG_BACKEND env override,
  /// like PrecisionPolicy pins bypass ASYNCMG_PRECISION). An unsupported
  /// request falls back to the widest supported backend with a logged
  /// warning — it never fails the setup.
  BackendKind backend = BackendKind::kAuto;
  /// Convert eligible levels to SELL-C-sigma (kSellChunk, kSellSigma) at
  /// setup.
  bool use_sell = true;
  /// Smallest level (rows) worth converting: below this the matrix lives in
  /// cache and conversion/padding overhead buys nothing.
  Index sell_min_rows = 1 << 12;
};

/// Per-level format choice: SELL-C-sigma only pays off on levels that run
/// many diagonal-type (Jacobi-family) sweeps over matrices too large for
/// cache; triangular/hybrid smoothers and the direct-solve coarsest level
/// keep CSR. `rows` is the level's row count.
bool level_prefers_sell(const KernelEngineOptions& opts, Index rows,
                        bool diagonal_smoother, bool coarsest);

/// Approximate bytes one pass over `a` streams (values at the stored scalar
/// width + columns + row pointers), for the telemetry bytes-moved counters.
inline std::size_t csr_pass_bytes(const CsrMatrix& a) {
  return a.value_bytes() + static_cast<std::size_t>(a.nnz()) * sizeof(Index) +
         (static_cast<std::size_t>(a.rows()) + 1) * sizeof(Index);
}

/// SELL counterpart of csr_pass_bytes: counts the stored (padded) entries
/// plus the column/metadata streams, so the bytes-moved counters and the
/// bench bandwidth numbers do not under-report SELL levels against raw nnz.
inline std::size_t sell_pass_bytes(const SellMatrix& a) {
  return a.pass_bytes();
}

/// True when the solve-phase kernels should fan out an OpenMP team for a
/// matrix of `rows` rows: large enough to amortize the team start, more
/// than one thread configured, and not on a pool worker thread (pool lanes
/// are already one per core). Shared by the CSR and SELL kernels of every
/// kernel backend so every path gates identically.
bool solve_omp_eligible(Index rows);

}  // namespace asyncmg
