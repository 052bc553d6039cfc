#pragma once
// The Op vocabulary of the SELL-C-σ kernels, shared by the scalar chunk
// loop (src/backend/backend.cpp) and the SIMD ones (src/backend/simd_*.cpp)
// through the one SELL skeleton (src/backend/sell_backend.hpp).
//
// kSubtract selects the accumulation order: residual-style ops seed with
// b[row] and subtract products (matching CsrMatrix::residual), spmv-style
// ops seed with 0 and add (matching CsrMatrix::spmv). The two orders are
// NOT interchangeable bitwise, which is why each fused kernel documents the
// reference it mirrors.
//
// Every backend runs the same init/store arithmetic through these structs;
// only the product-accumulation loop between them is ISA-specific, and that
// loop preserves each row's serial left-to-right order (one SIMD lane per
// row). That is the whole bitwise-identity argument — see DESIGN.md §15.

#include "sparse/types.hpp"

namespace asyncmg {
namespace sellops {

struct SpmvOp {  // y = A x
  static constexpr bool kSubtract = false;
  double* y;
  double init(Index) const { return 0.0; }
  void store(Index row, double s) const {
    y[static_cast<std::size_t>(row)] = s;
  }
};

struct ResidualOp {  // r = b - A x
  static constexpr bool kSubtract = true;
  const double* b;
  double* r;
  double init(Index row) const { return b[static_cast<std::size_t>(row)]; }
  void store(Index row, double s) const {
    r[static_cast<std::size_t>(row)] = s;
  }
};

struct DiagSweepOp {  // x_out = x_in + d .* (b - A x_in)
  static constexpr bool kSubtract = true;
  const double* b;
  const double* d;
  const double* x_in;
  double* x_out;
  double init(Index row) const { return b[static_cast<std::size_t>(row)]; }
  void store(Index row, double s) const {
    const auto i = static_cast<std::size_t>(row);
    x_out[i] = x_in[i] + d[i] * s;
  }
};

struct SubSpmvOp {  // tmp = r - A e (spmv order: full sum, then subtract)
  static constexpr bool kSubtract = false;
  const double* r;
  double* tmp;
  double init(Index) const { return 0.0; }
  void store(Index row, double s) const {
    const auto i = static_cast<std::size_t>(row);
    tmp[i] = r[i] - s;
  }
};

}  // namespace sellops
}  // namespace asyncmg
