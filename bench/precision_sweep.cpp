// Mixed-precision hierarchy sweep (DESIGN.md section 12): byte footprint,
// bytes moved per V-cycle, convergence, and cache residency for the three
// precision policies (f64 oracle, f32coarse, auto) on the 27pt Laplacian.
// Writes a machine-readable summary to --json (default BENCH_precision.json).
//
// The f64 column is the oracle: the f32coarse/auto rows are reported
// relative to it (operator bytes saved, extra cycles paid, solution
// distance). `--smoke` shrinks the problem for CI; the harness exits
// nonzero if a reduced-precision policy fails to converge or fails to beat
// the oracle's resident byte footprint, so CI catches both correctness and
// regression of the perf claim.

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_host.hpp"
#include "amg/precision.hpp"
#include "service/hierarchy_cache.hpp"
#include "telemetry/sink.hpp"
#include "util/timer.hpp"

namespace asyncmg {
namespace {

struct PolicyResult {
  std::string name;
  std::size_t setup_bytes = 0;
  std::size_t operator_value_bytes = 0;
  std::uint64_t bytes_per_cycle = 0;
  int cycles = 0;
  bool converged = false;
  double final_rel_res = 0.0;
  double solve_seconds = 0.0;
  double sol_rel_dist = 0.0;  // ||x - x_f64|| / ||x_f64||
  std::vector<std::pair<std::size_t, const char*>> level_precisions;
};

PrecisionPolicy policy_from_name(const std::string& name) {
  PrecisionPolicy pol;  // pinned: bypasses ASYNCMG_PRECISION
  if (name == "f32coarse") pol.mode = PrecisionPolicy::Mode::kF32Coarse;
  if (name == "auto") pol.mode = PrecisionPolicy::Mode::kAuto;
  return pol;
}

std::size_t operator_value_bytes(const MgSetup& s) {
  std::size_t total = 0;
  for (std::size_t k = 0; k < s.num_levels(); ++k) {
    total += s.a(k).value_bytes();
    if (k + 1 < s.num_levels()) {
      total += s.p(k).value_bytes() + s.pbar(k).value_bytes() +
               s.r(k).value_bytes() + s.rbar(k).value_bytes();
    }
  }
  return total;
}

}  // namespace
}  // namespace asyncmg

int main(int argc, char** argv) {
  using namespace asyncmg;

  Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const Index n = static_cast<Index>(cli.get_int("n", smoke ? 10 : 20));
  const int t_max = static_cast<int>(cli.get_int("cycles", 100));
  const double tol = 1e-8;
  const int repeats = static_cast<int>(cli.get_int("repeats", smoke ? 1 : 3));
  const std::string json_path = cli.get("json", "BENCH_precision.json");

  std::cout << "precision_sweep: 27pt Laplacian n=" << n << " ("
            << static_cast<std::int64_t>(n) * n * n << " dofs), tol=" << tol
            << (smoke ? " (smoke)" : "") << "\n";

  const std::vector<std::string> policies = {"f64", "f32coarse", "auto"};
  std::vector<PolicyResult> results;
  Vector x_oracle;

  for (const std::string& name : policies) {
    MgOptions mo =
        bench::paper_mg_options(SmootherType::kWeightedJacobi, 0.9, 1);
    mo.amg.precision = policy_from_name(name);
    MgSetup s(make_laplace_27pt(n).a, mo);
    const auto dofs = static_cast<std::size_t>(s.a(0).rows());
    const Vector b = bench::paper_rhs(dofs, 0);

    PolicyResult r;
    r.name = name;
    r.setup_bytes = estimate_setup_bytes(s);
    r.operator_value_bytes = operator_value_bytes(s);
    for (std::size_t k = 0; k < s.num_levels(); ++k) {
      r.level_precisions.emplace_back(k, precision_name(s.a(k).precision()));
    }

    // Bytes moved by one V-cycle, from the kernel engine's own counter.
    {
      TelemetrySink sink;
      MultiplicativeMg mg(s);
      mg.set_telemetry(&sink, 0);
      Vector x(dofs, 0.0);
      mg.cycle(b, x);
      r.bytes_per_cycle =
          sink.metrics().counter("kernel.bytes_moved").value();
    }

    // Convergence + best-of-repeats wall time, telemetry detached.
    Vector x(dofs, 0.0);
    for (int rep = 0; rep < repeats; ++rep) {
      MultiplicativeMg mg(s);
      std::fill(x.begin(), x.end(), 0.0);
      Timer timer;
      const SolveStats st = mg.solve(b, x, t_max, tol);
      const double sec = timer.seconds();
      if (rep == 0 || sec < r.solve_seconds) r.solve_seconds = sec;
      r.cycles = st.cycles;
      r.converged = st.converged;
      r.final_rel_res = st.final_rel_res();
    }
    if (name == "f64") {
      x_oracle = x;
    } else {
      double num = 0.0, den = 0.0;
      for (std::size_t i = 0; i < dofs; ++i) {
        num += (x[i] - x_oracle[i]) * (x[i] - x_oracle[i]);
        den += x_oracle[i] * x_oracle[i];
      }
      r.sol_rel_dist = den > 0.0 ? std::sqrt(num / den) : 0.0;
    }

    std::cout << "  " << name << ": setup " << r.setup_bytes / 1024
              << " KiB, op values " << r.operator_value_bytes / 1024
              << " KiB, " << r.bytes_per_cycle / 1024 << " KiB/cycle, "
              << r.cycles << " cycles"
              << (r.converged ? "" : " (NOT CONVERGED)") << ", rel res "
              << r.final_rel_res << "\n";
    results.push_back(std::move(r));
  }

  // Cache residency under a fixed byte budget: the budget holds two
  // demoted setups but fewer fp64 ones, so reduced precision translates
  // directly into more hierarchies resident per byte.
  const std::size_t b32 = results[1].setup_bytes;
  const std::size_t budget = 2 * b32 + b32 / 10;
  const int num_matrices = 4;
  std::vector<std::size_t> residency;
  for (const std::string& name : policies) {
    HierarchyCacheOptions co;
    co.mg = bench::paper_mg_options(SmootherType::kWeightedJacobi, 0.9, 1);
    co.mg.amg.precision = policy_from_name(name);
    co.max_bytes = budget;
    HierarchyCache cache(co);
    for (int i = 0; i < num_matrices; ++i) {
      Problem p = make_laplace_27pt(n);
      p.a.values_mutable()[0] += 1e-9 * (i + 1);
      cache.get_or_build(p.a);
    }
    residency.push_back(cache.stats().resident_entries);
    std::cout << "  cache[" << name << "]: " << residency.back() << "/"
              << num_matrices << " resident in " << budget / 1024
              << " KiB budget\n";
  }

  std::ofstream out(json_path);
  out << "{\"bench\":\"precision_sweep\",\"problem\":\"27pt\",\"n\":" << n
      << ",\"dofs\":" << static_cast<std::int64_t>(n) * n * n
      << ",\"tol\":" << tol << ",\"cache_budget_bytes\":" << budget
      << ",\"cache_matrices\":" << num_matrices
      << ",\"host\":" << bench::host_json() << ",\"policies\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PolicyResult& r = results[i];
    if (i) out << ",";
    out << "{\"policy\":\"" << r.name << "\",\"setup_bytes\":" << r.setup_bytes
        << ",\"operator_value_bytes\":" << r.operator_value_bytes
        << ",\"bytes_per_cycle\":" << r.bytes_per_cycle
        << ",\"cycles\":" << r.cycles
        << ",\"converged\":" << (r.converged ? "true" : "false")
        << ",\"final_rel_res\":" << r.final_rel_res
        << ",\"solve_seconds\":" << r.solve_seconds
        << ",\"sol_rel_dist_vs_f64\":" << r.sol_rel_dist
        << ",\"cache_resident\":" << residency[i]
        << ",\"level_precisions\":[";
    for (std::size_t k = 0; k < r.level_precisions.size(); ++k) {
      if (k) out << ",";
      out << "\"" << r.level_precisions[k].second << "\"";
    }
    out << "]}";
  }
  out << "]}\n";
  std::cout << "\nwrote " << json_path << "\n";

  // CI gate: every policy must converge; reduced precision must actually
  // shrink the resident footprint and fit more hierarchies in the budget.
  for (const PolicyResult& r : results) {
    if (!r.converged) {
      std::cerr << "FAIL: policy " << r.name << " did not converge\n";
      return 1;
    }
    if (r.name != "f64" && r.sol_rel_dist > 1e-4) {
      std::cerr << "FAIL: policy " << r.name << " drifted "
                << r.sol_rel_dist << " from the f64 oracle\n";
      return 1;
    }
  }
  if (results[1].setup_bytes >= results[0].setup_bytes ||
      residency[1] < 2 * residency[0]) {
    std::cerr << "FAIL: f32coarse footprint/residency did not improve "
              << "(bytes " << results[1].setup_bytes << " vs "
              << results[0].setup_bytes << ", resident " << residency[1]
              << " vs " << residency[0] << ")\n";
    return 1;
  }
  return 0;
}
