#pragma once
// Kernel backend abstraction (DESIGN.md section 15).
//
// AMGCL-style split (Demidov, PAPERS.md): the builder produces a
// backend-neutral hierarchy (CSR operators plus optional SELL-C-σ forms),
// and a KernelBackend supplies the solve-phase kernel set — SpMV, the fused
// diagonal sweep, the fused sub-SpMV, residual(+norm), restrict/prolong
// application, and workspace preparation. MgSetup resolves one backend per
// hierarchy from KernelEngineOptions::backend and every cycle driver
// (multiplicative, additive, async teams, shard workers) runs its kernels
// through it. Each kernel body exists exactly once, here; CsrMatrix and
// SellMatrix are formats (plus CsrMatrix's serial utility kernels).
//
// Bitwise contract: every backend's result is bit-identical to the serial
// CsrMatrix kernels on the source matrix, for every kernel, precision, and
// thread count. The SIMD backends achieve this by vectorizing ACROSS SELL
// chunk lanes — one matrix row per SIMD lane — so each row's serial
// CSR-order accumulation is reproduced exactly; see sparse/sell_ops.hpp and
// DESIGN.md §15 for the full argument. Because a CSR row's accumulation is
// a serial dependence chain, the CSR kernels, transfers, and workspace
// preparation are NOT ISA-specialized: they are non-virtual members shared
// by every backend. Only the four SELL entry points are virtual, and all
// backends implement them through one skeleton (backend/sell_backend.hpp)
// that differs only in the per-ISA chunk loop.
//
// Backends are stateless singletons; pointers returned by the resolvers are
// valid for the process lifetime and safe to share across threads.

#include <cstddef>
#include <string>

#include "sparse/csr.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sellcs.hpp"
#include "sparse/types.hpp"

namespace asyncmg {

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Concrete kind (never kAuto).
  virtual BackendKind kind() const = 0;
  const char* name() const { return backend_kind_name(kind()); }

  // --- SELL-C-σ solve kernels (the ISA-specialized set) -------------------
  //
  // `parallel` requests the engine's standard nnz-balanced chunk split; it
  // is still subject to solve_omp_eligible (pool workers and small matrices
  // stay serial), and chunks own disjoint output rows, so the result is
  // identical for every thread count either way.

  /// y = A x.
  virtual void sell_spmv(const SellMatrix& a, const Vector& x, Vector& y,
                         bool parallel) const = 0;
  /// r = b - A x (residual accumulation order).
  virtual void sell_residual(const SellMatrix& a, const Vector& b,
                             const Vector& x, Vector& r,
                             bool parallel) const = 0;
  /// x_out = x_in + d .* (b - A x_in), the fused damped-Jacobi sweep.
  virtual void sell_diag_sweep(const SellMatrix& a, const Vector& d,
                               const Vector& b, const Vector& x_in,
                               Vector& x_out, bool parallel) const = 0;
  /// tmp = r - A e (spmv accumulation order), the fused restriction input.
  virtual void sell_sub_spmv(const SellMatrix& a, const Vector& r,
                             const Vector& e, Vector& tmp,
                             bool parallel) const = 0;

  // --- CSR kernels (shared by every backend; see header comment) ----------
  //
  // `parallel` requests one static row split over the OpenMP team, subject
  // to solve_omp_eligible like the SELL kernels; rows write disjoint
  // outputs, so the result is the serial CsrMatrix kernel's bit for bit.
  // The fusion identities (each fused kernel performs the same operations
  // in the same order as the two-pass form it replaces):
  //
  //   csr_diag_sweep       == residual(b, x_in, r); x_out = x_in + d .* r
  //   csr_sub_spmv         == spmv(e, tmp); tmp = r - tmp
  //   csr_residual_norm_sq == residual(b, x, r); return dot(r, r)
  //
  // The residual order (s = b_i, then s -= a_ij x_j) and the spmv order
  // (s = 0, then s += a_ij x_j) are not interchangeable bitwise.

  void csr_spmv(const CsrMatrix& a, const Vector& x, Vector& y,
                bool parallel) const;
  void csr_spmv_rows(const CsrMatrix& a, const Vector& x, Vector& y,
                     Index begin, Index end) const;
  /// y += alpha * A x.
  void csr_spmv_add(const CsrMatrix& a, const Vector& x, Vector& y,
                    double alpha, bool parallel) const;
  void csr_residual(const CsrMatrix& a, const Vector& b, const Vector& x,
                    Vector& r, bool parallel) const;
  void csr_residual_rows(const CsrMatrix& a, const Vector& b, const Vector& x,
                         Vector& r, Index begin, Index end) const;
  /// x_out = x_in + d .* (b - A x_in); x_out must not alias x_in (Jacobi:
  /// every row reads the old iterate).
  void csr_diag_sweep(const CsrMatrix& a, const Vector& d, const Vector& b,
                      const Vector& x_in, Vector& x_out, bool parallel) const;
  /// tmp = r - A e in spmv accumulation order.
  void csr_sub_spmv(const CsrMatrix& a, const Vector& r, const Vector& e,
                    Vector& tmp, bool parallel) const;
  /// r = b - A x and returns sum r_i^2, reduced serially in row order after
  /// the (possibly parallel) residual, so it is thread-count invariant.
  double csr_residual_norm_sq(const CsrMatrix& a, const Vector& b,
                              const Vector& x, Vector& r,
                              bool parallel) const;

  // --- Transfer application ------------------------------------------------

  /// y = R x through the explicitly stored transpose R = P^T (row-parallel).
  void restrict_apply(const CsrMatrix& rt, const Vector& x, Vector& y,
                      bool parallel) const;
  /// e += P e_c.
  void prolong_add(const CsrMatrix& p, const Vector& e_c, Vector& e,
                   bool parallel) const;

  // --- Workspace -----------------------------------------------------------

  /// Sizes one cycle-workspace buffer. Large buffers are re-zeroed by a
  /// parallel loop so first-touch NUMA policies place pages with the team
  /// that runs the kernels; pool workers and small buffers skip it, exactly
  /// like the solve kernels' OpenMP gate.
  void prepare_workspace(Vector& v, std::size_t n) const;
};

// --- Dispatch ---------------------------------------------------------------

/// The TU for `k` was compiled into this binary (per-TU -mavx2/-mavx512f;
/// false on non-x86 builds). kScalar is always compiled; kAuto is never.
bool backend_compiled(BackendKind k);

/// backend_compiled(k) AND the running CPU reports the ISA (CPUID with OS
/// state, via __builtin_cpu_supports).
bool backend_supported(BackendKind k);

/// Widest supported backend on this host (at least kScalar).
BackendKind detect_backend();

/// Resolves a request to a concrete supported kind: an explicit request
/// pins the kind (falling back to detect_backend() with a one-time logged
/// warning when unsupported); kAuto consults ASYNCMG_BACKEND
/// (scalar|avx2|avx512|auto, invalid values warn once and mean auto) and
/// otherwise picks detect_backend(). Never returns kAuto, never throws.
BackendKind resolve_backend_kind(BackendKind requested);

/// Singleton backend instance for a concrete supported kind (kScalar for
/// anything unsupported or kAuto — callers should resolve first).
const KernelBackend& backend_for(BackendKind k);

/// resolve_backend_kind + backend_for in one step: the backend an engine
/// configured with `opts` runs on.
const KernelBackend& resolve_backend(const KernelEngineOptions& opts);

/// The scalar backend (always available; the SIMD backends' oracle).
const KernelBackend& scalar_backend();

/// "scalar avx2 avx512"-style list of supported kinds, for logs/stats.
std::string supported_backends_string();

}  // namespace asyncmg
