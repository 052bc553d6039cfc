// Sharded-executor scaling bench: sweeps shard count x channel latency on
// the REAL multi-threaded shard executor (src/shard), not the discrete-event
// model. For each point it reports wall time, achieved residual, mean
// corrections, and channel traffic (packets sent / dropped), and it always
// re-verifies the subsystem's core invariant first: the bulk-synchronous
// discipline is bitwise-identical to the single-shard oracle at every shard
// count (exit 1 on any mismatch, so CI catches a broken exchange).
//
// Writes a machine-readable summary to --json (default BENCH_shard.json).
// `--smoke` shrinks everything for CI: small problem, shards {1, 2, 4},
// zero-latency async only.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_host.hpp"
#include "shard/solver.hpp"
#include "util/timer.hpp"

namespace asyncmg {
namespace {

struct Measurement {
  std::size_t shards = 1;
  double latency_us = 0.0;
  double seconds = 0.0;
  double final_rel_res = 1.0;
  double mean_corrections = 0.0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
};

/// Synchronous oracle check: every shard count must produce bitwise the
/// same iterate as one shard. Returns false (and prints the first bad
/// index) on mismatch.
bool check_sync_oracle(const MgSetup& setup, const AdditiveOptions& ao,
                       const Vector& b, const std::vector<std::int64_t>& shards,
                       int t_max) {
  Vector x_oracle(b.size(), 0.0);
  {
    ShardOptions so;
    so.num_shards = 1;
    so.mode = ShardMode::kSynchronous;
    so.t_max = t_max;
    ShardedSolver solver(setup, ao, so);
    solver.solve(b, x_oracle);
  }
  for (std::int64_t s : shards) {
    if (s <= 1) continue;
    ShardOptions so;
    so.num_shards = static_cast<std::size_t>(s);
    so.mode = ShardMode::kSynchronous;
    so.t_max = t_max;
    ShardedSolver solver(setup, ao, so);
    Vector x(b.size(), 0.0);
    solver.solve(b, x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] != x_oracle[i]) {
        std::cerr << "FAIL: sync run with " << s
                  << " shards diverges from the 1-shard oracle at row " << i
                  << " (" << x[i] << " vs " << x_oracle[i] << ")\n";
        return false;
      }
    }
  }
  return true;
}

}  // namespace
}  // namespace asyncmg

int main(int argc, char** argv) {
  using namespace asyncmg;

  Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const Index n = static_cast<Index>(cli.get_int("n", smoke ? 8 : 14));
  const int t_max = static_cast<int>(cli.get_int("cycles", smoke ? 15 : 40));
  const auto shards = smoke ? std::vector<std::int64_t>{1, 2, 4}
                            : cli.get_int_list("shards", {1, 2, 4, 8});
  const auto latencies_us =
      smoke ? std::vector<double>{0.0}
            : cli.get_double_list("latencies-us", {0.0, 50.0, 200.0});
  const int max_lag = static_cast<int>(cli.get_int("max-lag", 3));
  const std::string json_path = cli.get("json", "BENCH_shard.json");

  Problem prob = make_problem(TestSet::kFD27pt, n);
  const MgSetup setup(std::move(prob.a),
                      bench::paper_mg_options(SmootherType::kWeightedJacobi,
                                              0.9, 1));
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  const std::size_t rows = static_cast<std::size_t>(setup.a(0).rows());
  const Vector b = bench::paper_rhs(rows, 0);

  std::cout << "shard_scaling: 27pt " << n << "^3 (" << rows
            << " dofs), Multadd, " << t_max << " corrections per shard"
            << (smoke ? " (smoke)" : "") << "\n\n";

  if (!check_sync_oracle(setup, ao, b, shards, t_max)) return 1;
  std::cout << "sync oracle: all shard counts bitwise-match 1 shard\n\n";

  Table table({"shards", "latency-us", "time", "relres", "corr/shard",
               "pkts", "dropped"});
  std::vector<Measurement> runs;
  for (std::int64_t s : shards) {
    for (double lat : latencies_us) {
      ShardOptions so;
      so.num_shards = static_cast<std::size_t>(s);
      so.mode = ShardMode::kAsynchronous;
      so.t_max = t_max;
      so.latency_us = lat;
      so.max_lag = max_lag;
      ShardedSolver solver(setup, ao, so);
      Vector x(rows, 0.0);
      const ShardResult r = solver.solve(b, x);
      Measurement m;
      m.shards = so.num_shards;
      m.latency_us = lat;
      m.seconds = r.seconds;
      m.final_rel_res = r.final_rel_res;
      m.mean_corrections = r.mean_corrections();
      m.packets_sent = r.packets_sent;
      m.packets_dropped = r.packets_dropped;
      runs.push_back(m);
      table.add_row({std::to_string(s), Table::fmt(lat, 0),
                     Table::fmt(r.seconds, 4), Table::fmt(r.final_rel_res, 3),
                     Table::fmt(r.mean_corrections(), 3),
                     std::to_string(r.packets_sent),
                     std::to_string(r.packets_dropped)});
    }
  }
  table.emit(cli.get("csv", ""));
  std::cout << "\nReading: the free-running executor tolerates stale blocks; "
               "residual degrades gracefully as latency (staleness) grows "
               "while per-shard throughput holds\n";

  std::ofstream out(json_path);
  out << "{\"bench\":\"shard_scaling\",\"host\":" << bench::host_json()
      << ",\"problem\":\"27pt\",\"n\":" << n
      << ",\"cycles\":" << t_max << ",\"max_lag\":" << max_lag
      << ",\"smoke\":" << (smoke ? 1 : 0)
      << ",\"sync_bitwise_oracle\":\"pass\",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Measurement& m = runs[i];
    if (i) out << ",";
    out << "{\"shards\":" << m.shards << ",\"latency_us\":" << m.latency_us
        << ",\"seconds\":" << m.seconds << ",\"final_rel_res\":"
        << m.final_rel_res << ",\"mean_corrections\":" << m.mean_corrections
        << ",\"packets_sent\":" << m.packets_sent << ",\"packets_dropped\":"
        << m.packets_dropped << "}";
  }
  out << "]}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
