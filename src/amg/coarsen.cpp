#include "amg/coarsen.hpp"

#include <algorithm>
#include <stdexcept>

#include "amg/strength.hpp"
#include "sparse/parallel.hpp"
#include "util/rng.hpp"

namespace asyncmg {

namespace {

enum : std::int8_t { kUndecided = -1, kF = 0, kC = 1 };

/// Neighbor iteration over a CSR pattern row.
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

/// Stateless per-row hash weight in [0, 1): a salted splitmix64 draw, so
/// any thread can compute any row's weight independently.
double hash_weight(std::uint64_t seed, Index i) {
  std::uint64_t state =
      seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(i) + 1));
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Drops every decided index from the frontier, preserving index order
/// (deterministic: membership depends only on state).
void compact_frontier(std::vector<Index>& frontier,
                      const std::vector<std::int8_t>& state) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < frontier.size(); ++r) {
    if (state[static_cast<std::size_t>(frontier[r])] == kUndecided) {
      frontier[w++] = frontier[r];
    }
  }
  frontier.resize(w);
}

/// Parallel PMIS rounds: each round selects the (measure, smaller-index-wins)
/// local maxima and demotes their strong dependents. Every write is
/// owner-computes (state[i] and flag[i] are written only by the iteration
/// that owns row i), and each round touches only the frontier of
/// still-undecided rows.
Splitting pmis_rounds_parallel(const CsrMatrix& s, const CsrMatrix& st,
                               const std::vector<double>& weights,
                               const Splitting& init, int num_threads) {
  const Index n = s.rows();
  const int nt =
      n >= kSetupSerialCutoff ? resolve_setup_threads(num_threads) : 1;

  std::vector<std::int8_t> state(static_cast<std::size_t>(n), kUndecided);
  std::vector<double> measure(static_cast<std::size_t>(n), 0.0);
  std::vector<std::int8_t> newc(static_cast<std::size_t>(n), 0);

  if (!init.empty() && init.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("coarsen_parallel: init size mismatch");
  }
  const bool seeded = !init.empty();

#pragma omp parallel for schedule(static) num_threads(nt)
  for (Index i = 0; i < n; ++i) {
    const Index infl = st.row_ptr()[i + 1] - st.row_ptr()[i];
    measure[static_cast<std::size_t>(i)] =
        static_cast<double>(infl) + weights[static_cast<std::size_t>(i)];
    // Seeds forced C; their strong dependents F; isolated points F. Each
    // decision reads only init (immutable) and row i's pattern.
    if (seeded && init[static_cast<std::size_t>(i)] == PointType::kCoarse) {
      state[static_cast<std::size_t>(i)] = kC;
      continue;
    }
    if (seeded) {
      bool dep_on_c = false;
      for_row(s, i, [&](Index j) {
        if (init[static_cast<std::size_t>(j)] == PointType::kCoarse) {
          dep_on_c = true;
        }
      });
      if (dep_on_c) {
        state[static_cast<std::size_t>(i)] = kF;
        continue;
      }
    }
    const bool no_dep = s.row_ptr()[i + 1] == s.row_ptr()[i];
    const bool no_infl = st.row_ptr()[i + 1] == st.row_ptr()[i];
    if (no_dep && no_infl) state[static_cast<std::size_t>(i)] = kF;
  }

  std::vector<Index> frontier;
  frontier.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    if (state[static_cast<std::size_t>(i)] == kUndecided) frontier.push_back(i);
  }

  while (!frontier.empty()) {
    const auto fn = static_cast<std::int64_t>(frontier.size());
    std::int64_t selected = 0;

    // Round phase 1: local maxima of (measure, smaller-index-wins) over the
    // undecided symmetrized strong neighborhood.
#pragma omp parallel for schedule(static) num_threads(nt) reduction(+ : selected)
    for (std::int64_t f = 0; f < fn; ++f) {
      const Index i = frontier[static_cast<std::size_t>(f)];
      bool is_max = true;
      auto check = [&](Index j) {
        if (!is_max || state[static_cast<std::size_t>(j)] != kUndecided) return;
        const double mi = measure[static_cast<std::size_t>(i)];
        const double mj = measure[static_cast<std::size_t>(j)];
        if (mj > mi || (mj == mi && j < i)) is_max = false;
      };
      for_row(s, i, check);
      for_row(st, i, check);
      newc[static_cast<std::size_t>(i)] = is_max ? 1 : 0;
      selected += is_max ? 1 : 0;
    }
    if (selected == 0) {
      throw std::runtime_error("coarsen_parallel: stalled (no local maxima)");
    }

    // Round phase 2: promote the winners, then demote their strong
    // dependents. F-ness is decided by row i looking at its own strong
    // influences (i depends on a new C point), so state[i] has exactly one
    // writer; reads go through the stable newc flags.
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t f = 0; f < fn; ++f) {
      const Index i = frontier[static_cast<std::size_t>(f)];
      if (newc[static_cast<std::size_t>(i)] != 0) {
        state[static_cast<std::size_t>(i)] = kC;
        continue;
      }
      bool dep_on_new_c = false;
      for_row(s, i, [&](Index j) {
        if (newc[static_cast<std::size_t>(j)] != 0) dep_on_new_c = true;
      });
      if (dep_on_new_c) state[static_cast<std::size_t>(i)] = kF;
    }

    // Clear the round's winner flags before winners leave the frontier, so
    // later rounds' gathers only ever see fresh decisions.
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t f = 0; f < fn; ++f) {
      newc[static_cast<std::size_t>(frontier[static_cast<std::size_t>(f)])] = 0;
    }

    compact_frontier(frontier, state);
  }

  return state_to_splitting(state);
}

/// Parallel round-based RS first pass (see header). Integer measures are
/// updated in gather form so every write is owner-computes and the result
/// is independent of the thread count.
Splitting rs_rounds_parallel(const CsrMatrix& s, const CsrMatrix& st,
                             int num_threads) {
  const Index n = s.rows();
  const int nt =
      n >= kSetupSerialCutoff ? resolve_setup_threads(num_threads) : 1;

  std::vector<std::int8_t> state(static_cast<std::size_t>(n), kUndecided);
  std::vector<Index> measure(static_cast<std::size_t>(n), 0);
  std::vector<std::int8_t> newc(static_cast<std::size_t>(n), 0);
  std::vector<std::int8_t> newf(static_cast<std::size_t>(n), 0);

#pragma omp parallel for schedule(static) num_threads(nt)
  for (Index i = 0; i < n; ++i) {
    const Index infl = st.row_ptr()[i + 1] - st.row_ptr()[i];
    measure[static_cast<std::size_t>(i)] = infl;
    const bool isolated = infl == 0 && s.row_ptr()[i + 1] == s.row_ptr()[i];
    if (isolated) state[static_cast<std::size_t>(i)] = kF;
  }

  std::vector<Index> frontier;
  frontier.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    if (state[static_cast<std::size_t>(i)] == kUndecided) frontier.push_back(i);
  }

  while (!frontier.empty()) {
    const auto fn = static_cast<std::int64_t>(frontier.size());

    // Phase 1: (measure, smaller-index-wins) local maxima become C. The
    // strict total order guarantees at least the frontier's global maximum
    // wins, so every round makes progress.
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t f = 0; f < fn; ++f) {
      const Index i = frontier[static_cast<std::size_t>(f)];
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

    // Phase 2: winners become C; rows strongly depending on a winner F.
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t f = 0; f < fn; ++f) {
      const Index i = frontier[static_cast<std::size_t>(f)];
      if (newc[static_cast<std::size_t>(i)] != 0) {
        state[static_cast<std::size_t>(i)] = kC;
        newf[static_cast<std::size_t>(i)] = 0;
        continue;
      }
      bool dep_on_new_c = false;
      for_row(s, i, [&](Index j) {
        if (newc[static_cast<std::size_t>(j)] != 0) dep_on_new_c = true;
      });
      newf[static_cast<std::size_t>(i)] = dep_on_new_c ? 1 : 0;
      if (dep_on_new_c) state[static_cast<std::size_t>(i)] = kF;
    }

    // Phase 3: gather-form measure update for the survivors. The classical
    // heap algorithm's scatter updates (++ per new F dependent, clamped --
    // per new C influence) become per-row counts over st: exact integer
    // arithmetic, one writer per row.
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t f = 0; f < fn; ++f) {
      const Index i = frontier[static_cast<std::size_t>(f)];
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

    // Phase 4: clear this round's flags before rows leave the frontier, so
    // the next round's gathers see only that round's decisions (the naive
    // oracle in tests/oracle zero-fills whole arrays; only frontier rows can
    // be set).
#pragma omp parallel for schedule(static) num_threads(nt)
    for (std::int64_t f = 0; f < fn; ++f) {
      const Index i = frontier[static_cast<std::size_t>(f)];
      newc[static_cast<std::size_t>(i)] = 0;
      newf[static_cast<std::size_t>(i)] = 0;
    }

    compact_frontier(frontier, state);
  }

  return state_to_splitting(state);
}

}  // namespace

std::vector<double> coarsen_tie_weights(Index n, std::uint64_t seed,
                                        int num_threads) {
  std::vector<double> w(static_cast<std::size_t>(n));
  const int nt =
      n >= kSetupSerialCutoff ? resolve_setup_threads(num_threads) : 1;
#pragma omp parallel for schedule(static) num_threads(nt)
  for (Index i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i)] = hash_weight(seed, i);
  }
  return w;
}

std::uint64_t coarsen_level_seed(std::uint64_t seed, Index level) {
  std::uint64_t state =
      seed ^ (0xd1b54a32d192ed03ull * (static_cast<std::uint64_t>(level) + 1));
  return splitmix64(state);
}

Splitting coarsen_parallel(const CsrMatrix& s, const CoarsenParams& p) {
  const CsrMatrix st = s.transpose(p.num_threads);
  switch (p.algo) {
    case CoarsenAlgo::kRS:
      return rs_rounds_parallel(s, st, p.num_threads);
    case CoarsenAlgo::kPMIS: {
      const std::vector<double> w =
          coarsen_tie_weights(s.rows(), p.seed, p.num_threads);
      return pmis_rounds_parallel(s, st, w, {}, p.num_threads);
    }
    case CoarsenAlgo::kHMIS: {
      const Splitting seeds = rs_rounds_parallel(s, st, p.num_threads);
      const std::vector<double> w =
          coarsen_tie_weights(s.rows(), p.seed, p.num_threads);
      return pmis_rounds_parallel(s, st, w, seeds, p.num_threads);
    }
  }
  throw std::invalid_argument("unknown coarsening algorithm");
}

Splitting coarsen_aggressive_parallel(const CsrMatrix& s,
                                      const Splitting& first,
                                      const CoarsenParams& p) {
  const Index n = s.rows();
  std::vector<Index> cnum = coarse_numbering(first);
  const Index nc = count_coarse(first);
  if (nc == 0) return first;
  std::vector<Index> cinv(static_cast<std::size_t>(nc));
  for (Index i = 0; i < n; ++i) {
    if (cnum[static_cast<std::size_t>(i)] >= 0) {
      cinv[static_cast<std::size_t>(cnum[static_cast<std::size_t>(i)])] = i;
    }
  }

  // The C-point distance-2 subgraph, assembled in two deterministic
  // parallel passes.
  const CsrMatrix s2 = strength_distance2(s, p.num_threads);
  std::vector<Index> row_ptr;
  std::vector<Index> col_idx;
  std::vector<double> values;
  assemble_rows_blocked(
      nc, p.num_threads, "coarsen_aggressive", row_ptr, col_idx, values, [&] {
        return [&](Index ic, std::vector<Index>& cols,
                   std::vector<double>& vals) {
          const Index i = cinv[static_cast<std::size_t>(ic)];
          for_row(s2, i, [&](Index j) {
            const Index jc = cnum[static_cast<std::size_t>(j)];
            if (jc >= 0 && jc != ic) {
              cols.push_back(jc);
              vals.push_back(1.0);
            }
          });
        };
      });
  const CsrMatrix sub = CsrMatrix::from_csr(
      nc, nc, std::move(row_ptr), std::move(col_idx), std::move(values));

  CoarsenParams sub_p = p;
  // Salt the seed so the second stage draws independent tie-break weights.
  sub_p.seed = p.seed ^ 0xa5a5a5a55a5a5a5aull;
  const Splitting sub_split = coarsen_parallel(sub, sub_p);

  // Map the surviving C points back to the fine numbering.
  Splitting out(static_cast<std::size_t>(n), PointType::kFine);
  for (Index ic = 0; ic < nc; ++ic) {
    if (sub_split[static_cast<std::size_t>(ic)] == PointType::kCoarse) {
      out[static_cast<std::size_t>(cinv[static_cast<std::size_t>(ic)])] =
          PointType::kCoarse;
    }
  }
  return out;
}

Index count_coarse(const Splitting& split) {
  Index c = 0;
  for (PointType p : split) c += (p == PointType::kCoarse) ? 1 : 0;
  return c;
}

std::vector<Index> coarse_numbering(const Splitting& split) {
  std::vector<Index> num(split.size(), -1);
  Index next = 0;
  for (std::size_t i = 0; i < split.size(); ++i) {
    if (split[i] == PointType::kCoarse) num[i] = next++;
  }
  return num;
}

}  // namespace asyncmg
