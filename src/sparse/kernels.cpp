#include "sparse/kernels.hpp"

#include <omp.h>

#include "sparse/parallel.hpp"
#include "util/thread_context.hpp"

namespace asyncmg {

bool solve_omp_eligible(Index rows) {
  return rows >= kSetupSerialCutoff && omp_get_max_threads() > 1 &&
         !this_thread_is_pool_worker();
}

const char* backend_kind_name(BackendKind k) {
  switch (k) {
    case BackendKind::kAuto:
      return "auto";
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kAvx2:
      return "avx2";
    case BackendKind::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool level_prefers_sell(const KernelEngineOptions& opts, Index rows,
                        bool diagonal_smoother, bool coarsest) {
  return opts.use_sell && diagonal_smoother && !coarsest &&
         rows >= opts.sell_min_rows;
}

}  // namespace asyncmg
