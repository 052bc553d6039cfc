#pragma once
// The four workloads of the benchmark (README.md has the why of each):
//
//   warm_mix       SolveService, 4 requests in flight over the paper's test
//                  sets, cache filled before timing.
//   cold_mix       the same stream with every 4th request carrying a
//                  never-seen (seed-perturbed) matrix.
//   async_multadd  back-to-back run_shared_memory solves of one 27pt system:
//                  free-running Multadd, lock-write, local-res, Criterion 2.
//   cluster_bsp    BSP solves through ClusterCoordinator over 2
//                  asyncmg_workerd processes, checked bitwise against the
//                  in-process single-shard oracle.
//
// All are closed loops driven by one client thread.

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          // tiny problems, one set-up repetition
  std::string workerd;         // path of the asyncmg_workerd binary
  std::string out_dir = ".";   // worker logs and the trace file go here
  int force_misses = 0;        // test hook: declare this many answers wrong
};

struct Result {
  FailTally fails;
  Metrics end_to_end;
  Metrics per_layer;           // traced run only
  std::size_t samples = 0;     // latency samples behind the percentiles
  std::string details_json;    // workload facts printed beside the result
};

bool known_workload(const std::string& name);

/// Runs one workload. Exceptions escaping set-up propagate; failures inside
/// the timed loop are counted in Result::fails.
Result run_workload(const Config& cfg);

}  // namespace perfbench
