#pragma once
// Test-only reference additive corrections: the per-grid bodies of BPX,
// Multadd and AFACx as AdditiveCorrector first computed them -- the scatter
// restriction CsrMatrix::spmv_transpose down the method's interpolant
// chain, the allocating smoother calls, and a prolongation of every grid's
// correction to all fine rows -- built only from the serial CsrMatrix
// kernels, Smoother::apply_zero / apply_symmetrized / smooth_zero and the
// coarse LU. It shares no code with AdditiveCorrector (stored-transpose
// restriction, one restriction chain per cycle, row-range prolongation),
// which makes it the bitwise oracle of correction(k) and accumulate_cycle
// (tests/test_multigrid.cpp).

#include "multigrid/additive.hpp"

namespace asyncmg::oracle {

/// Grid k's fine-grid correction from the fine residual `r`; `c` is
/// overwritten.
void reference_correction(const MgSetup& setup, const AdditiveOptions& opts,
                          std::size_t k, const Vector& r, Vector& c);

/// Adds every grid's reference correction to all rows of `acc`, in grid
/// order.
void reference_additive_cycle(const MgSetup& setup,
                              const AdditiveOptions& opts, const Vector& r,
                              Vector& acc);

}  // namespace asyncmg::oracle
