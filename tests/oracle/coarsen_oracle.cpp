#include "oracle/coarsen_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace asyncmg::oracle {
namespace {

enum : std::int8_t { kUndecided = -1, kF = 0, kC = 1 };

template <typename Fn>
void for_row(const CsrMatrix& s, Index i, Fn&& fn) {
  const auto rp = s.row_ptr();
  const auto ci = s.col_idx();
  for (Index k = rp[i]; k < rp[i + 1]; ++k) fn(ci[static_cast<std::size_t>(k)]);
}

Splitting state_to_splitting(const std::vector<std::int8_t>& state) {
  Splitting split(state.size(), PointType::kFine);
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i] == kC) split[i] = PointType::kCoarse;
  }
  return split;
}

/// Naive serial RS rounds: full sweeps over all rows, no frontier. Each
/// round selects the (measure, smaller-index-wins) local maxima as C,
/// demotes their strong dependents to F, then updates the survivors'
/// integer measures in gather form.
Splitting rs_rounds_naive(const CsrMatrix& s, const CsrMatrix& st) {
  const Index n = s.rows();
  std::vector<std::int8_t> state(static_cast<std::size_t>(n), kUndecided);
  std::vector<Index> measure(static_cast<std::size_t>(n), 0);
  Index undecided = 0;
  for (Index i = 0; i < n; ++i) {
    const Index infl = st.row_ptr()[i + 1] - st.row_ptr()[i];
    measure[static_cast<std::size_t>(i)] = infl;
    const bool isolated = infl == 0 && s.row_ptr()[i + 1] == s.row_ptr()[i];
    if (isolated) {
      state[static_cast<std::size_t>(i)] = kF;
    } else {
      ++undecided;
    }
  }

  std::vector<std::int8_t> newc(static_cast<std::size_t>(n));
  std::vector<std::int8_t> newf(static_cast<std::size_t>(n));
  while (undecided > 0) {
    std::fill(newc.begin(), newc.end(), std::int8_t{0});
    std::fill(newf.begin(), newf.end(), std::int8_t{0});
    for (Index i = 0; i < n; ++i) {
      if (state[static_cast<std::size_t>(i)] != kUndecided) continue;
      bool is_max = true;
      auto check = [&](Index j) {
        if (!is_max || state[static_cast<std::size_t>(j)] != kUndecided) return;
        const Index mi = measure[static_cast<std::size_t>(i)];
        const Index mj = measure[static_cast<std::size_t>(j)];
        if (mj > mi || (mj == mi && j < i)) is_max = false;
      };
      for_row(s, i, check);
      for_row(st, i, check);
      newc[static_cast<std::size_t>(i)] = is_max ? 1 : 0;
    }
    for (Index i = 0; i < n; ++i) {
      if (state[static_cast<std::size_t>(i)] != kUndecided) continue;
      if (newc[static_cast<std::size_t>(i)] != 0) {
        state[static_cast<std::size_t>(i)] = kC;
        --undecided;
        continue;
      }
      bool dep = false;
      for_row(s, i, [&](Index j) {
        if (newc[static_cast<std::size_t>(j)] != 0) dep = true;
      });
      if (dep) {
        newf[static_cast<std::size_t>(i)] = 1;
        state[static_cast<std::size_t>(i)] = kF;
        --undecided;
      }
    }
    for (Index i = 0; i < n; ++i) {
      if (state[static_cast<std::size_t>(i)] != kUndecided) continue;
      Index inc = 0;
      Index dec = 0;
      for_row(st, i, [&](Index j) {
        inc += (newf[static_cast<std::size_t>(j)] != 0) ? 1 : 0;
        dec += (newc[static_cast<std::size_t>(j)] != 0) ? 1 : 0;
      });
      Index m = measure[static_cast<std::size_t>(i)];
      m = std::max(Index{0}, m - dec) + inc;
      measure[static_cast<std::size_t>(i)] = m;
    }
  }
  return state_to_splitting(state);
}

/// Naive serial PMIS rounds with explicit per-row tie-break weights. `init`
/// optionally seeds points as already-coarse (HMIS); empty otherwise.
Splitting pmis_rounds_naive(const CsrMatrix& s, const CsrMatrix& st,
                            const std::vector<double>& weights,
                            const Splitting& init) {
  const Index n = s.rows();
  std::vector<std::int8_t> state(static_cast<std::size_t>(n), kUndecided);
  std::vector<double> measure(static_cast<std::size_t>(n), 0.0);
  for (Index i = 0; i < n; ++i) {
    const Index infl = st.row_ptr()[i + 1] - st.row_ptr()[i];
    measure[static_cast<std::size_t>(i)] =
        static_cast<double>(infl) + weights[static_cast<std::size_t>(i)];
  }

  Index undecided = n;
  auto decide = [&](Index i, std::int8_t what) {
    state[static_cast<std::size_t>(i)] = what;
    --undecided;
  };

  // Seed points forced coarse, and their strong dependents fine.
  if (!init.empty()) {
    for (Index i = 0; i < n; ++i) {
      if (init[static_cast<std::size_t>(i)] == PointType::kCoarse) {
        decide(i, kC);
      }
    }
    for (Index i = 0; i < n; ++i) {
      if (state[static_cast<std::size_t>(i)] != kUndecided) continue;
      bool dep_on_c = false;
      for_row(s, i, [&](Index j) {
        if (state[static_cast<std::size_t>(j)] == kC) dep_on_c = true;
      });
      if (dep_on_c) decide(i, kF);
    }
  }

  // Isolated points (no strong couplings either way) are F.
  for (Index i = 0; i < n; ++i) {
    if (state[static_cast<std::size_t>(i)] != kUndecided) continue;
    const bool no_dep = s.row_ptr()[i + 1] == s.row_ptr()[i];
    const bool no_infl = st.row_ptr()[i + 1] == st.row_ptr()[i];
    if (no_dep && no_infl) decide(i, kF);
  }

  std::vector<Index> new_c;
  while (undecided > 0) {
    new_c.clear();
    // Local maxima of the measure over undecided symmetrized neighborhoods.
    for (Index i = 0; i < n; ++i) {
      if (state[static_cast<std::size_t>(i)] != kUndecided) continue;
      bool is_max = true;
      auto check = [&](Index j) {
        if (!is_max || state[static_cast<std::size_t>(j)] != kUndecided) return;
        const double mi = measure[static_cast<std::size_t>(i)];
        const double mj = measure[static_cast<std::size_t>(j)];
        if (mj > mi || (mj == mi && j < i)) is_max = false;
      };
      for_row(s, i, check);
      for_row(st, i, check);
      if (is_max) new_c.push_back(i);
    }
    if (new_c.empty()) {
      throw std::runtime_error("pmis_rounds_naive: stalled (no local maxima)");
    }
    for (Index i : new_c) decide(i, kC);
    // Undecided points strongly depending on a new C point become F.
    for (Index i : new_c) {
      for_row(st, i, [&](Index j) {
        if (state[static_cast<std::size_t>(j)] == kUndecided) decide(j, kF);
      });
    }
  }
  return state_to_splitting(state);
}

}  // namespace

Splitting coarsen_parallel_oracle(const CsrMatrix& s, const CoarsenParams& p) {
  const CsrMatrix st = s.transpose();
  switch (p.algo) {
    case CoarsenAlgo::kRS:
      return rs_rounds_naive(s, st);
    case CoarsenAlgo::kPMIS:
      return pmis_rounds_naive(s, st, coarsen_tie_weights(s.rows(), p.seed, 1),
                               {});
    case CoarsenAlgo::kHMIS:
      return pmis_rounds_naive(s, st, coarsen_tie_weights(s.rows(), p.seed, 1),
                               rs_rounds_naive(s, st));
  }
  throw std::invalid_argument("unknown coarsening algorithm");
}

}  // namespace asyncmg::oracle
