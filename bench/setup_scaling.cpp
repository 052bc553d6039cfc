// AMG setup-phase thread-scaling bench: wall time of the full setup and a
// per-phase breakdown (strength / coarsen / aggressive / interp / RAP) as a
// function of the setup thread count. Writes a machine-readable summary,
// stamped with the host, to --json (default BENCH_setup.json).
//
// The per-phase numbers come from re-running the build loop phase by phase
// through the public kernel APIs with the same options -- and, via
// coarsen_level_seed, the exact same per-level splittings -- as
// Hierarchy::build. Each level's phase timings are committed together
// only once the level completes, and the mirrored level count is checked
// against the end-to-end build (exit 2 on mismatch): without that check a
// level collapsing under aggressive coarsening lets a dangling RAP or
// interp timing smear into the previous level's numbers.
//
// The splitting is timed in two columns that cover different work:
// `coarsen` is the first stage (coarsen_parallel), `aggressive` the
// distance-2 second stage on the aggressive levels (coarsen_aggressive_
// parallel, including its distance-2 strength pattern). `coarsen_oracle`
// times the test-only naive serial rounds (tests/oracle) on the first
// stage only, so it compares like for like with `coarsen`.
//
// Determinism gate: at every thread count and level, the first-stage
// splitting is compared bitwise against the oracle, and the aggressive
// second stage against its own single-thread run. Any mismatch makes the
// bench exit 1 -- CI treats coarsening determinism as a hard failure, not
// a perf number.
//
// Speedup is whatever the hardware gives: on a single-core container every
// thread count measures ~1x, and that is reported honestly rather than
// failing the run (the host stamp carries hardware_threads for context).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "amg/coarsen.hpp"
#include "amg/hierarchy.hpp"
#include "amg/interp.hpp"
#include "amg/strength.hpp"
#include "bench_common.hpp"
#include "bench_host.hpp"
#include "oracle/coarsen_oracle.hpp"
#include "sparse/spgemm.hpp"
#include "util/timer.hpp"

namespace asyncmg {
namespace {

struct PhaseTimes {
  double strength = 0.0;
  double coarsen = 0.0;         // first stage
  double coarsen_oracle = 0.0;  // naive serial rounds on the first stage
  double aggressive = 0.0;      // distance-2 second stage
  double interp = 0.0;
  double rap = 0.0;
  double total = 0.0;  // end-to-end Hierarchy::build, measured separately
  int levels = 0;      // levels of the end-to-end hierarchy
  bool deterministic = true;
  bool attribution_ok = true;
};

bool same_splitting(const Splitting& a, const Splitting& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Mirrors Hierarchy::build level by level, timing each phase. Options match
/// bench::paper_mg_options (HMIS + classical modified interpolation); the
/// splitting runs the default row-parallel path with the build's per-level
/// seeds, so the mirrored hierarchy is the built hierarchy.
PhaseTimes run_setup(const CsrMatrix& a_fine, const AmgOptions& opts) {
  PhaseTimes pt;
  Timer timer;
  {
    Hierarchy h = Hierarchy::build(a_fine, opts);
    pt.total = timer.seconds();
    pt.levels = static_cast<int>(h.num_levels());
    if (h.num_levels() < 2) {
      std::cerr << "warning: hierarchy degenerated to one level\n";
    }
  }

  CsrMatrix a = a_fine;
  int mirrored = 0;
  for (Index lvl = 0; lvl + 1 < opts.max_levels; ++lvl) {
    if (a.rows() <= opts.coarse_size) break;

    // Phase timings accumulate into locals and commit only when the level
    // completes: a level that stalls mid-phase must not leak partial
    // timings into the totals.
    timer.reset();
    const CsrMatrix s = strength_matrix(a, opts.strength_theta,
                                        opts.strength_norm, opts.num_functions,
                                        opts.setup_threads);
    const double t_strength = timer.seconds();

    CoarsenParams cp;
    cp.algo = opts.coarsening;
    cp.weights = opts.coarsen_weights;
    cp.seed = coarsen_level_seed(opts.seed, lvl);
    cp.num_threads = opts.setup_threads;
    const bool aggressive =
        lvl < static_cast<Index>(opts.num_aggressive_levels);

    timer.reset();
    Splitting split = coarsen_parallel(s, cp);
    const double t_coarsen = timer.seconds();

    // Determinism gate: the timed first stage against the naive serial
    // oracle of the same rounds (timed as its like-for-like column).
    timer.reset();
    const Splitting oracle_split = oracle::coarsen_parallel_oracle(s, cp);
    const double t_oracle = timer.seconds();
    if (!same_splitting(split, oracle_split)) {
      std::cerr << "DETERMINISM FAILURE: coarsen_parallel != oracle at level "
                << lvl << " (threads=" << opts.setup_threads << ")\n";
      pt.deterministic = false;
    }

    double t_aggressive = 0.0;
    if (aggressive) {
      timer.reset();
      Splitting aggr_split = coarsen_aggressive_parallel(s, split, cp);
      t_aggressive = timer.seconds();
      // The aggressive stage against its single-thread self.
      CoarsenParams cp1 = cp;
      cp1.num_threads = 1;
      if (!same_splitting(aggr_split,
                          coarsen_aggressive_parallel(s, split, cp1))) {
        std::cerr << "DETERMINISM FAILURE: aggressive stage thread-dependent "
                     "at level "
                  << lvl << " (threads=" << opts.setup_threads << ")\n";
        pt.deterministic = false;
      }
      split = std::move(aggr_split);
    }

    const Index nc = count_coarse(split);
    if (nc == 0 || nc >= a.rows() ||
        static_cast<double>(nc) >
            opts.max_coarsen_ratio * static_cast<double>(a.rows())) {
      break;  // stalled before interpolation: discard this level's timings
    }

    timer.reset();
    const InterpAlgo interp_algo =
        aggressive ? InterpAlgo::kMultipass : opts.interpolation;
    CsrMatrix p = build_interpolation(interp_algo, a, s, split,
                                      opts.setup_threads);
    p = truncate_interpolation(p, opts.trunc_factor, opts.setup_threads);
    const double t_interp = timer.seconds();

    timer.reset();
    a = galerkin_product(a, p, opts.setup_threads);
    const double t_rap = timer.seconds();

    // Level complete: commit every phase together.
    pt.strength += t_strength;
    pt.coarsen += t_coarsen;
    pt.coarsen_oracle += t_oracle;
    pt.aggressive += t_aggressive;
    pt.interp += t_interp;
    pt.rap += t_rap;
    ++mirrored;
  }

  // Phase-attribution check: the mirror must have built exactly the levels
  // the end-to-end build did, or the per-phase sums describe a different
  // hierarchy.
  if (mirrored + 1 != pt.levels) {
    std::cerr << "ATTRIBUTION FAILURE: mirrored " << (mirrored + 1)
              << " levels, Hierarchy::build made " << pt.levels << "\n";
    pt.attribution_ok = false;
  }
  return pt;
}

}  // namespace
}  // namespace asyncmg

int main(int argc, char** argv) {
  using namespace asyncmg;

  Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const Index n = static_cast<Index>(cli.get_int("n", smoke ? 12 : 32));
  const auto threads = smoke ? std::vector<std::int64_t>{1, 2}
                             : cli.get_int_list("threads", {1, 2, 4, 8});
  const int repeats = static_cast<int>(cli.get_int("repeats", smoke ? 1 : 3));
  const int aggressive = static_cast<int>(cli.get_int("aggressive", 1));
  const std::string json_path = cli.get("json", "BENCH_setup.json");
  const unsigned hw = std::thread::hardware_concurrency();

  std::cout << "setup_scaling: 27pt Laplacian n=" << n << " ("
            << n * n * n << " dofs), " << repeats
            << " repeats, hardware_threads=" << hw << "\n";
  if (hw <= 1) {
    std::cout << "  note: single-hardware-thread machine; thread-sweep "
                 "speedups are expected to be ~1x (see EXPERIMENTS.md)\n";
  }
  const CsrMatrix a = make_laplace_27pt(n).a;

  AmgOptions opts =
      bench::paper_mg_options(SmootherType::kWeightedJacobi, 0.9, aggressive)
          .amg;

  struct Row {
    int threads;
    PhaseTimes best;
  };
  std::vector<Row> rows;
  bool deterministic = true;
  bool attribution_ok = true;
  for (std::int64_t t : threads) {
    opts.setup_threads = static_cast<int>(t);
    PhaseTimes best;
    for (int r = 0; r < repeats; ++r) {
      const PhaseTimes pt = run_setup(a, opts);
      deterministic = deterministic && pt.deterministic;
      attribution_ok = attribution_ok && pt.attribution_ok;
      if (r == 0 || pt.total < best.total) best = pt;
    }
    rows.push_back({static_cast<int>(t), best});
    std::cout << "  threads=" << t << ": total " << best.total << " s"
              << "  (strength " << best.strength << ", coarsen "
              << best.coarsen << " [oracle " << best.coarsen_oracle
              << "], aggressive " << best.aggressive << ", interp "
              << best.interp << ", RAP " << best.rap
              << ")  levels=" << best.levels << "\n";
  }

  // Speedup of each row against the first --threads row.
  const PhaseTimes base = rows.empty() ? PhaseTimes{} : rows.front().best;
  auto speedup = [](double base_s, double s) {
    return s > 0.0 ? base_s / s : 0.0;
  };
  for (const Row& r : rows) {
    std::cout << "  speedup x" << r.threads << " = "
              << speedup(base.total, r.best.total) << "  (coarsen "
              << speedup(base.coarsen, r.best.coarsen) << ", aggressive "
              << speedup(base.aggressive, r.best.aggressive) << ")\n";
  }

  std::ofstream out(json_path);
  out << "{\"bench\":\"setup_scaling\",\"problem\":\"27pt\",\"n\":" << n
      << ",\"dofs\":" << n * n * n << ",\"repeats\":" << repeats
      << ",\"aggressive\":" << aggressive
      << ",\"host\":" << bench::host_json()
      << ",\"deterministic\":" << (deterministic ? "true" : "false")
      << ",\"runs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (i) out << ",";
    out << "{\"threads\":" << r.threads << ",\"total_seconds\":"
        << r.best.total << ",\"speedup\":" << speedup(base.total, r.best.total)
        << ",\"levels\":" << r.best.levels
        << ",\"phases\":{\"strength\":" << r.best.strength << ",\"coarsen\":"
        << r.best.coarsen << ",\"coarsen_oracle\":" << r.best.coarsen_oracle
        << ",\"aggressive\":" << r.best.aggressive << ",\"interp\":"
        << r.best.interp << ",\"rap\":" << r.best.rap << "}"
        << ",\"coarsen_speedup\":" << speedup(base.coarsen, r.best.coarsen)
        << ",\"aggressive_speedup\":"
        << speedup(base.aggressive, r.best.aggressive) << "}";
  }
  out << "]}\n";
  std::cout << "\nwrote " << json_path << "\n";

  if (!deterministic) {
    std::cerr << "FAILED: coarsening disagreed with the serial oracle or "
                 "with its single-thread run\n";
    return 1;
  }
  if (!attribution_ok) {
    std::cerr << "FAILED: per-phase attribution diverged from the "
                 "end-to-end build\n";
    return 2;
  }
  return 0;
}
