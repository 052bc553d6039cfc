#pragma once
// The one SELL-C-σ backend skeleton, shared by the scalar, AVX2 and AVX-512
// backends: the four SELL entry points (shape asserts, output resize, Op),
// the precision dispatch, and the engine's standard nnz-balanced OpenMP
// chunk split. Each backend supplies only `Apply`, a functor running chunks
// [c0, c1) of a SellView against one Op (sparse/sell_ops.hpp). Chunks own
// disjoint output rows, so the partition never affects the result.
//
// This header contains no intrinsics; the SIMD TUs include it under their
// own ISA flags, so each instantiation is compiled for exactly one ISA.

#include <omp.h>

#include <cassert>
#include <cstddef>
#include <span>

#include "backend/backend.hpp"
#include "sparse/kernels.hpp"
#include "sparse/sell_ops.hpp"
#include "sparse/sellcs.hpp"
#include "util/partition.hpp"

namespace asyncmg {
namespace detail {

template <class Apply, class Op>
void run_sell(const SellView& v, const double* x, const Op& op, bool parallel,
              const Apply& apply) {
  const auto run = [&](std::size_t c0, std::size_t c1) {
    if (v.prec == Precision::kF32) {
      apply(v, v.values_f32, x, op, c0, c1);
    } else {
      apply(v, v.values, x, op, c0, c1);
    }
  };
  if (!parallel || v.nchunks <= 1 || !solve_omp_eligible(v.rows)) {
    run(0, v.nchunks);
    return;
  }
  const std::span<const Index> prefix(v.chunk_ptr, v.nchunks + 1);
#pragma omp parallel
  {
    const auto nt = static_cast<std::size_t>(omp_get_num_threads());
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const Range rg = nnz_balanced_chunk(prefix, nt, t);
    run(rg.begin, rg.end);
  }
}

template <BackendKind K, class Apply>
class SellBackend final : public KernelBackend {
 public:
  BackendKind kind() const override { return K; }

  void sell_spmv(const SellMatrix& a, const Vector& x, Vector& y,
                 bool parallel) const override {
    assert(static_cast<Index>(x.size()) == a.cols());
    y.resize(static_cast<std::size_t>(a.rows()));
    run_sell(a.view(), x.data(), sellops::SpmvOp{y.data()}, parallel,
             Apply{});
  }

  void sell_residual(const SellMatrix& a, const Vector& b, const Vector& x,
                     Vector& r, bool parallel) const override {
    assert(static_cast<Index>(b.size()) == a.rows() &&
           static_cast<Index>(x.size()) == a.cols());
    r.resize(static_cast<std::size_t>(a.rows()));
    run_sell(a.view(), x.data(), sellops::ResidualOp{b.data(), r.data()},
             parallel, Apply{});
  }

  void sell_diag_sweep(const SellMatrix& a, const Vector& d, const Vector& b,
                       const Vector& x_in, Vector& x_out,
                       bool parallel) const override {
    assert(a.rows() == a.cols() && static_cast<Index>(d.size()) == a.rows() &&
           static_cast<Index>(b.size()) == a.rows() &&
           static_cast<Index>(x_in.size()) == a.rows() && &x_in != &x_out);
    x_out.resize(static_cast<std::size_t>(a.rows()));
    run_sell(
        a.view(), x_in.data(),
        sellops::DiagSweepOp{b.data(), d.data(), x_in.data(), x_out.data()},
        parallel, Apply{});
  }

  void sell_sub_spmv(const SellMatrix& a, const Vector& r, const Vector& e,
                     Vector& tmp, bool parallel) const override {
    assert(static_cast<Index>(r.size()) == a.rows() &&
           static_cast<Index>(e.size()) == a.cols());
    tmp.resize(static_cast<std::size_t>(a.rows()));
    run_sell(a.view(), e.data(), sellops::SubSpmvOp{r.data(), tmp.data()},
             parallel, Apply{});
  }
};

}  // namespace detail
}  // namespace asyncmg
