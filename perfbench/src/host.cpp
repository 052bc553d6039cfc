#include "host.hpp"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "backend/backend.hpp"
#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::size_t llc_size() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

}  // namespace

HostInfo probe_host() {
  HostInfo h;
  h.cpu_model = cpu_brand();
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.llc_bytes = llc_size();
  h.backend = asyncmg::backend_kind_name(
      asyncmg::resolve_backend_kind(asyncmg::BackendKind::kAuto));
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

std::string HostInfo::to_json() const {
  std::ostringstream os;
  os << "{\"cpu_model\":" << json_string(cpu_model) << ",\"nproc\":" << nproc
     << ",\"llc_bytes\":" << llc_bytes << ",\"backend\":"
     << json_string(backend) << ",\"compiler\":" << json_string(compiler)
     << ",\"build_type\":" << json_string(build_type) << "}";
  return os.str();
}

TriadResult stream_triad(std::size_t n, int reps) {
  std::vector<double> a(n), b(n), c(n);
  // First touch under the same static schedule as the timed loop.
  const auto ni = static_cast<long>(n);
#pragma omp parallel for schedule(static)
  for (long i = 0; i < ni; ++i) {
    a[i] = 0.0;
    b[i] = 1.0 + 1e-9 * static_cast<double>(i);
    c[i] = 2.0;
  }
  const double s = 3.0;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
#pragma omp parallel for schedule(static)
    for (long i = 0; i < ni; ++i) a[i] = b[i] + s * c[i];
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (sec > 0.0) {
      best = std::max(best, 3.0 * 8.0 * static_cast<double>(n) / sec / 1e9);
    }
  }
  // Keep the result observable so the loop cannot be dropped.
  volatile double sink = a[n / 2];
  (void)sink;
  TriadResult t;
  t.gbps = best;
  t.array_bytes = n * sizeof(double);
  t.threads = omp_get_max_threads();
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
