#pragma once
// Host stamp for the BENCH_*.json records the harnesses write: CPU model,
// hardware threads, resolved kernel backend, compiler and build type, so a
// committed number always names the machine and build that produced it.
// Kept out of bench_common.hpp, which the repo benchmark (perfbench/)
// includes and which therefore does not change.

#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "backend/backend.hpp"

#ifndef ASYNCMG_BUILD_TYPE
#define ASYNCMG_BUILD_TYPE "unknown"
#endif

namespace asyncmg::bench {

/// CPU brand string from CPUID, or "unknown".
inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

/// The host as a JSON object, e.g. {"cpu_model":"...","hardware_threads":4,
/// "backend":"avx512","compiler":"gcc 12.2.0","build_type":"Release"}.
inline std::string host_json() {
  auto quoted = [](const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  };
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"cpu_model\":" << quoted(cpu_model())
     << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
     << ",\"backend\":"
     << quoted(backend_kind_name(resolve_backend_kind(BackendKind::kAuto)))
     << ",\"compiler\":" << quoted(compiler)
     << ",\"build_type\":" << quoted(ASYNCMG_BUILD_TYPE) << "}";
  return os.str();
}

}  // namespace asyncmg::bench
