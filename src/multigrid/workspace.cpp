#include "multigrid/workspace.hpp"

#include "backend/backend.hpp"
#include "multigrid/setup.hpp"

namespace asyncmg {

CycleWorkspace::CycleWorkspace(const MgSetup& setup) {
  const std::size_t nl = setup.num_levels();
  const KernelBackend& be = setup.backend();
  r_.resize(nl);
  e_.resize(nl);
  tmp_.resize(nl);
  swp_.resize(nl);
  // The backend owns placement: prepare_workspace sizes each buffer and
  // zero-fills it under the solve-phase OpenMP schedule so pages land on the
  // threads that will stream them.
  for (std::size_t k = 0; k < nl; ++k) {
    const auto n = static_cast<std::size_t>(setup.a(k).rows());
    for (Vector* v : {&r_[k], &e_[k], &tmp_[k], &swp_[k]}) {
      be.prepare_workspace(*v, n);
    }
  }
}

std::size_t CycleWorkspace::bytes() const {
  std::size_t total = 0;
  for (const auto* vecs : {&r_, &e_, &tmp_, &swp_}) {
    for (const Vector& v : *vecs) total += v.capacity() * sizeof(double);
  }
  return total;
}

}  // namespace asyncmg
