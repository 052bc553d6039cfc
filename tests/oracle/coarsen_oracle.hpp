#pragma once
// Test-only reference C/F splitting: the round semantics of
// coarsen_parallel written as plain full-sweep serial loops (no frontier,
// no OpenMP, no owner-computes restructuring). It shares no round code with
// src/amg/coarsen, which makes it the bitwise oracle of the production
// splitting (tests/test_coarsen_parallel.cpp) and the oracle column of
// bench/setup_scaling.

#include "amg/coarsen.hpp"

namespace asyncmg::oracle {

/// coarsen_parallel(s, p) by naive full sweeps; p.num_threads is ignored.
Splitting coarsen_parallel_oracle(const CsrMatrix& s, const CoarsenParams& p);

}  // namespace asyncmg::oracle
