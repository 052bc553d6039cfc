// asyncmg_perfbench: runs one benchmark workload and prints its result.
//
//   asyncmg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--smoke] [--workerd PATH] [--out-dir DIR]
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of the traced run. The line is
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exit code 0 only when every answer was correct.

#include <sys/stat.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "host.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "asyncmg_perfbench: " << why
            << "\nusage: asyncmg_perfbench --workload "
               "warm_mix|cold_mix|async_multadd|cluster_bsp --seed N "
               "--seconds S --trace 0|1 [--smoke] [--workerd PATH] "
               "[--out-dir DIR]\n";
  return 2;
}

std::string sibling(const std::string& argv0, const std::string& name) {
  const auto slash = argv0.find_last_of('/');
  return (slash == std::string::npos ? std::string(".")
                                     : argv0.substr(0, slash)) +
         "/" + name;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.workerd = sibling(argv[0], "asyncmg_workerd");
  cfg.out_dir = ".bench_out";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        cfg.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value()) != 0;
      } else if (arg == "--smoke") {
        cfg.smoke = true;
      } else if (arg == "--workerd") {
        cfg.workerd = value();
      } else if (arg == "--out-dir") {
        cfg.out_dir = value();
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload || !known_workload(cfg.workload)) {
    return usage("missing or unknown --workload");
  }
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  mkdir(cfg.out_dir.c_str(), 0755);

  const HostInfo host = probe_host();
  std::cout << "perfbench " << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace
            << (cfg.smoke ? " (smoke)" : "") << "\n"
            << "host " << host.to_json() << "\n";

  Result res;
  try {
    res = run_workload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "asyncmg_perfbench: " << cfg.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }

  const Metrics& out = cfg.trace ? res.per_layer : res.end_to_end;
  std::cout << "details " << res.details_json << "\n";
  for (const auto& [name, m] : res.end_to_end) {
    std::cout << "  " << name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "  fail_ratio = " << json_number(res.fails.ratio())
            << " ratio (" << res.fails.failed() << " of "
            << res.fails.attempted() << " requests)\n"
            << "  latency samples = " << res.samples
            << (percentile_resolved(res.samples, 90.0)
                    ? ""
                    : " (fewer than 10 beyond p90: p90 unresolved)")
            << "\n";
  if (cfg.trace) {
    for (const auto& [name, m] : res.per_layer) {
      std::cout << "  " << name << " = " << json_number(m.value) << " "
                << m.unit << "\n";
    }
  }

  const bool correct = res.fails.failed() == 0 && res.fails.attempted() > 0;
  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(res.fails.attempted()) +
      ", \"failed\": " + std::to_string(res.fails.failed()) +
      ", \"metrics\": " + metrics_json(out) + "}";
  std::ofstream(cfg.out_dir + "/result_" + cfg.workload +
                (cfg.trace ? "_trace" : "") + ".json")
      << "{\"host\":" << host.to_json() << ",\"details\":" << res.details_json
      << ",\"result\":" << line << "}\n";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
