#pragma once
// Host and build stamp of a result, the STREAM-triad bandwidth ceiling, and
// peak resident memory. Everything is read from the CPU (CPUID), the C
// library and the compiler; no file outside the checkout is opened.

#include <cstddef>
#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::size_t llc_bytes = 0;   // last-level cache (0 when unknown)
  std::string backend;         // resolved asyncmg BackendKind
  std::string compiler;
  std::string build_type;

  std::string to_json() const;
};

HostInfo probe_host();

struct TriadResult {
  double gbps = 0.0;            // best of the repetitions
  std::size_t array_bytes = 0;  // bytes of ONE of the three arrays
  int threads = 0;
};

/// STREAM triad a[i] = b[i] + s * c[i] over three arrays of `n` doubles
/// each, OpenMP-parallel; bandwidth counts 3 * 8 * n bytes per pass (the
/// STREAM convention, no write-allocate). Best of `reps` passes.
TriadResult stream_triad(std::size_t n, int reps);

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

}  // namespace perfbench
