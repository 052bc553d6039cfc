// Solve-phase kernel-engine bench: seconds per multiplicative V-cycle for
// the three engine configurations on the 27-point Laplacian, plus PCG with
// and without a reusable workspace. Writes a machine-readable summary to
// --json (default BENCH_solve.json).
//
// Configurations (one MgSetup per format so conversion cost never leaks
// into the timed loop):
//
//   reference   oracle::reference_cycle (tests/oracle): the original
//                two-pass CSR path with per-call smoother temporaries --
//                the bitwise oracle and the speedup baseline.
//   fused_csr   fused kernels + cycle workspace, all levels CSR.
//   fused_sell  fused kernels + cycle workspace + SELL-C-sigma on the
//                levels the heuristic selects.
//
// All three produce bit-identical iterates (tests/test_kernels.cpp); this
// harness only measures time. `--smoke` shrinks everything for CI: one
// small size, few cycles, SELL forced on so the whole engine is exercised.

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "bench_common.hpp"
#include "bench_host.hpp"
#include "multigrid/pcg.hpp"
#include "oracle/reference_cycle.hpp"
#include "sparse/sellcs.hpp"
#include "telemetry/sink.hpp"
#include "util/timer.hpp"

namespace asyncmg {
namespace {

struct Measurement {
  std::string config;
  Index n = 0;
  int threads = 1;
  double sec_per_cycle = 0.0;
  double speedup = 1.0;  // vs reference at the same (n, threads)
};

}  // namespace
}  // namespace asyncmg

int main(int argc, char** argv) {
  using namespace asyncmg;

  Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const auto sizes =
      smoke ? std::vector<std::int64_t>{10}
            : cli.get_int_list("sizes", {16, 24});
  const int cycles = static_cast<int>(cli.get_int("cycles", smoke ? 3 : 25));
  const int repeats = static_cast<int>(cli.get_int("repeats", smoke ? 1 : 5));
  const auto threads = smoke ? std::vector<std::int64_t>{1}
                             : cli.get_int_list("threads", {1, 4});
  const std::string json_path = cli.get("json", "BENCH_solve.json");
  const int max_threads = omp_get_max_threads();

  std::cout << "solve_phase: 27pt Laplacian, V(1,1) cycles=" << cycles
            << " repeats=" << repeats << (smoke ? " (smoke)" : "") << "\n";

  std::vector<Measurement> rows;
  double largest_1t_speedup = 0.0;
  for (std::int64_t ni : sizes) {
    const Index n = static_cast<Index>(ni);
    MgOptions mo_sell =
        bench::paper_mg_options(SmootherType::kWeightedJacobi, 0.9, 1);
    if (smoke) mo_sell.engine.sell_min_rows = 1;  // exercise SELL in CI
    MgOptions mo_csr = mo_sell;
    mo_csr.engine.use_sell = false;
    MgSetup s_sell(make_laplace_27pt(n).a, mo_sell);
    MgSetup s_csr(make_laplace_27pt(n).a, mo_csr);
    const auto dofs = static_cast<std::size_t>(s_csr.a(0).rows());
    const Vector b = bench::paper_rhs(dofs, 0);
    std::cout << "  n=" << n << " (" << dofs << " dofs)";
    if (const SellMatrix* sm = s_sell.sell(0)) {
      std::cout << "  [finest " << sm->summary() << "]";
    }
    std::cout << "\n";

    for (std::int64_t t : threads) {
      if (t > max_threads) continue;
      omp_set_num_threads(static_cast<int>(t));
      const char* const names[] = {"reference", "fused_csr", "fused_sell"};
      constexpr int kNumCfgs = 3;
      oracle::ReferenceLevels ref_levels;
      MultiplicativeMg mg_csr(s_csr);
      MultiplicativeMg mg_sell(s_sell);
      const auto run_cycle = [&](int i, Vector& x) {
        if (i == 0) {
          oracle::reference_cycle(s_csr, b, x, ref_levels);
        } else {
          (i == 1 ? mg_csr : mg_sell).cycle(b, x);
        }
      };
      double best[kNumCfgs] = {0.0, 0.0, 0.0};
      for (int i = 0; i < kNumCfgs; ++i) {
        // Warm workspaces, page mappings and the OpenMP team.
        Vector x(b.size(), 0.0);
        for (int c = 0; c < 2; ++c) run_cycle(i, x);
      }
      // Paired measurement: within a round every engine advances one cycle
      // in turn, so machine-load drift and cache state hit all three nearly
      // identically (timing each engine's cycles back to back instead lets
      // whatever the machine is doing during that batch bias one engine's
      // number). Keep each engine's best round.
      for (int rep = 0; rep < repeats; ++rep) {
        std::vector<Vector> xs(kNumCfgs, Vector(b.size(), 0.0));
        double acc[kNumCfgs] = {0.0, 0.0, 0.0};
        Timer timer;
        for (int c = 0; c < cycles; ++c) {
          for (int i = 0; i < kNumCfgs; ++i) {
            timer.reset();
            run_cycle(i, xs[i]);
            acc[i] += timer.seconds();
          }
        }
        for (int i = 0; i < kNumCfgs; ++i) {
          const double per = acc[i] / cycles;
          if (rep == 0 || per < best[i]) best[i] = per;
        }
      }
      const double ref_time = best[0];
      for (int i = 0; i < kNumCfgs; ++i) {
        Measurement m;
        m.config = names[i];
        m.n = n;
        m.threads = static_cast<int>(t);
        m.sec_per_cycle = best[i];
        m.speedup = m.sec_per_cycle > 0.0 ? ref_time / m.sec_per_cycle : 0.0;
        rows.push_back(m);
        std::cout << "    threads=" << t << " " << m.config << ": "
                  << m.sec_per_cycle * 1e3 << " ms/cycle  (x" << m.speedup
                  << ")\n";
        if (t == 1 && ni == sizes.back() && i == 2) {
          largest_1t_speedup = m.speedup;
        }
      }
    }
  }
  omp_set_num_threads(max_threads);

  // ------------------------------------------------------------------
  // Kernel-backend sweep (DESIGN.md section 15): the fused SELL engine
  // under each supported backend, paired-round timing against the scalar
  // oracle. The iterates must match the scalar backend bitwise -- a
  // mismatch is a correctness failure and exits nonzero; slower-than-
  // scalar is only reported. Bandwidth comes from the engine's own
  // traffic model (kernel.bytes_moved, fed by sell_pass_bytes /
  // csr_pass_bytes) over the best per-cycle time.
  // ------------------------------------------------------------------
  struct BackendRow {
    BackendKind kind;
    double sec_per_cycle = 0.0;
    double speedup = 1.0;  // vs the scalar backend
    std::uint64_t bytes_per_cycle = 0;
    double gbps = 0.0;
  };
  std::vector<BackendRow> backend_rows;
  bool backend_mismatch = false;
  {
    const Index n = static_cast<Index>(sizes.back());
    const int bt = static_cast<int>(
        *std::max_element(threads.begin(), threads.end()));
    omp_set_num_threads(std::min(bt, max_threads));
    std::vector<BackendKind> kinds{BackendKind::kScalar};
    for (const BackendKind k : {BackendKind::kAvx2, BackendKind::kAvx512}) {
      if (backend_supported(k)) kinds.push_back(k);
    }
    std::vector<std::unique_ptr<MgSetup>> setups;
    std::vector<std::unique_ptr<MultiplicativeMg>> engines;
    for (const BackendKind k : kinds) {
      MgOptions mo =
          bench::paper_mg_options(SmootherType::kWeightedJacobi, 0.9, 1);
      if (smoke) mo.engine.sell_min_rows = 1;
      mo.engine.backend = k;
      setups.push_back(
          std::make_unique<MgSetup>(make_laplace_27pt(n).a, mo));
      engines.push_back(std::make_unique<MultiplicativeMg>(*setups.back()));
    }
    const Vector bb = bench::paper_rhs(
        static_cast<std::size_t>(setups[0]->a(0).rows()), 0);

    // Correctness gate: a few cycles per backend, bitwise against scalar.
    std::vector<Vector> xs(kinds.size(), Vector(bb.size(), 0.0));
    for (int t = 0; t < 3; ++t) {
      for (std::size_t i = 0; i < kinds.size(); ++i) {
        engines[i]->cycle(bb, xs[i]);
      }
    }
    for (std::size_t i = 1; i < kinds.size(); ++i) {
      for (std::size_t j = 0; j < xs[0].size(); ++j) {
        if (xs[i][j] != xs[0][j]) {
          std::cerr << "backend " << backend_kind_name(kinds[i])
                    << " diverges from scalar at dof " << j << "\n";
          backend_mismatch = true;
          break;
        }
      }
    }

    // Bytes per cycle from the engine's telemetry counters (identical for
    // every backend; measured once on the scalar engine).
    std::uint64_t bytes_per_cycle = 0;
    {
      TelemetrySink sink;
      engines[0]->set_telemetry(&sink, 0);
      Vector x(bb.size(), 0.0);
      engines[0]->cycle(bb, x);
      bytes_per_cycle = sink.metrics().counter("kernel.bytes_moved").value();
      engines[0]->set_telemetry(nullptr);
      (void)sink.drain();
    }

    std::vector<double> best(kinds.size(), 0.0);
    for (int rep = 0; rep < repeats; ++rep) {
      std::vector<Vector> xr(kinds.size(), Vector(bb.size(), 0.0));
      std::vector<double> acc(kinds.size(), 0.0);
      Timer timer;
      for (int c = 0; c < cycles; ++c) {
        for (std::size_t i = 0; i < kinds.size(); ++i) {
          timer.reset();
          engines[i]->cycle(bb, xr[i]);
          acc[i] += timer.seconds();
        }
      }
      for (std::size_t i = 0; i < kinds.size(); ++i) {
        const double per = acc[i] / cycles;
        if (rep == 0 || per < best[i]) best[i] = per;
      }
    }
    std::cout << "  backend sweep: n=" << n
              << " threads=" << std::min(bt, max_threads)
              << " (supported: " << supported_backends_string() << ")\n";
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      BackendRow row;
      row.kind = kinds[i];
      row.sec_per_cycle = best[i];
      row.speedup = best[i] > 0.0 ? best[0] / best[i] : 0.0;
      row.bytes_per_cycle = bytes_per_cycle;
      row.gbps = best[i] > 0.0
                     ? static_cast<double>(bytes_per_cycle) / best[i] / 1e9
                     : 0.0;
      backend_rows.push_back(row);
      std::cout << "    " << backend_kind_name(row.kind) << ": "
                << row.sec_per_cycle * 1e3 << " ms/cycle  (x" << row.speedup
                << " vs scalar, " << row.gbps << " GB/s)\n";
    }
    omp_set_num_threads(max_threads);
  }

  // PCG workspace ablation at the smallest size: per-solve seconds with a
  // fresh workspace every call vs one reused across calls.
  const Index pcg_n = static_cast<Index>(sizes.front());
  MgOptions mo = bench::paper_mg_options(SmootherType::kWeightedJacobi, 0.9, 1);
  MgSetup s(make_laplace_27pt(pcg_n).a, mo);
  const Vector b = bench::paper_rhs(static_cast<std::size_t>(s.a(0).rows()), 1);
  PcgOptions po;
  po.max_iterations = smoke ? 5 : 20;
  po.tol = 0.0;
  const Preconditioner pre =
      make_mg_preconditioner(s, MgPreconditionerKind::kSymmetricVCycle);
  const int solves = smoke ? 2 : 5;
  double pcg_fresh = 0.0, pcg_reused = 0.0;
  {
    Vector x;
    Timer timer;
    for (int r = 0; r < solves; ++r) {
      x.assign(b.size(), 0.0);
      pcg_solve(s.a(0), b, x, pre, po);
    }
    pcg_fresh = timer.seconds() / solves;
    PcgWorkspace ws;
    pcg_solve(s.a(0), b, x, pre, po, ws);  // warm
    timer.reset();
    for (int r = 0; r < solves; ++r) {
      x.assign(b.size(), 0.0);
      pcg_solve(s.a(0), b, x, pre, po, ws);
    }
    pcg_reused = timer.seconds() / solves;
  }
  std::cout << "  pcg n=" << pcg_n << ": fresh-ws " << pcg_fresh * 1e3
            << " ms/solve, reused-ws " << pcg_reused * 1e3 << " ms/solve\n";

  if (largest_1t_speedup > 0.0) {
    std::cout << "\nsingle-thread fused_sell speedup at largest size: x"
              << largest_1t_speedup << "\n";
  }

  std::ofstream out(json_path);
  out << "{\"bench\":\"solve_phase\",\"problem\":\"27pt\",\"cycles\":" << cycles
      << ",\"repeats\":" << repeats << ",\"smoke\":" << (smoke ? 1 : 0)
      << ",\"host\":" << bench::host_json() << ",\"runs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    if (i) out << ",";
    out << "{\"config\":\"" << m.config << "\",\"n\":" << m.n
        << ",\"threads\":" << m.threads << ",\"sec_per_cycle\":"
        << m.sec_per_cycle << ",\"speedup\":" << m.speedup << "}";
  }
  out << "],\"pcg\":{\"n\":" << pcg_n << ",\"fresh_ws_seconds\":" << pcg_fresh
      << ",\"reused_ws_seconds\":" << pcg_reused << "}}\n";
  std::cout << "wrote " << json_path << "\n";

  const std::string backend_json =
      cli.get("json-backend", "BENCH_backend.json");
  std::ofstream bout(backend_json);
  bout << "{\"bench\":\"solve_phase_backend\",\"problem\":\"27pt\",\"n\":"
       << sizes.back() << ",\"cycles\":" << cycles
       << ",\"smoke\":" << (smoke ? 1 : 0) << ",\"supported\":\""
       << supported_backends_string() << "\",\"bitwise_identical\":"
       << (backend_mismatch ? 0 : 1) << ",\"runs\":[";
  for (std::size_t i = 0; i < backend_rows.size(); ++i) {
    const auto& r = backend_rows[i];
    if (i) bout << ",";
    bout << "{\"backend\":\"" << backend_kind_name(r.kind)
         << "\",\"sec_per_cycle\":" << r.sec_per_cycle
         << ",\"speedup_vs_scalar\":" << r.speedup << ",\"bytes_per_cycle\":"
         << r.bytes_per_cycle << ",\"gbps\":" << r.gbps << "}";
  }
  bout << "]}\n";
  std::cout << "wrote " << backend_json << "\n";

  if (backend_mismatch) {
    std::cerr << "FAIL: SIMD backend iterates are not bitwise identical to "
                 "the scalar oracle\n";
    return 1;
  }
  return 0;
}
