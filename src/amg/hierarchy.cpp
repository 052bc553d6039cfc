#include "amg/hierarchy.hpp"

#include <sstream>
#include <stdexcept>

#include "sparse/spgemm.hpp"

namespace asyncmg {

HierarchyBuilder::HierarchyBuilder(CsrMatrix a_fine, const AmgOptions& opts)
    : opts_(opts) {
  levels_.push_back(AmgLevel{std::move(a_fine), {}, {}});

  // Per-dof function map for unknown-based AMG; carried to coarse levels
  // (a C point keeps its fine-level component).
  if (opts_.num_functions > 1) {
    funcs_.resize(static_cast<std::size_t>(levels_.back().a.rows()));
    for (std::size_t i = 0; i < funcs_.size(); ++i) {
      funcs_[i] =
          static_cast<int>(i % static_cast<std::size_t>(opts_.num_functions));
    }
  }
}

bool HierarchyBuilder::step() {
  if (done_) return false;
  if (lvl_ + 1 >= opts_.max_levels) {
    done_ = true;
    return false;
  }
  const CsrMatrix& a = levels_.back().a;
  const Index n = a.rows();
  if (n <= opts_.coarse_size) {
    done_ = true;
    return false;
  }

  const CsrMatrix s = strength_matrix_mapped(a, opts_.strength_theta,
                                             opts_.strength_norm, funcs_,
                                             opts_.setup_threads);
  const bool aggressive =
      lvl_ < static_cast<Index>(opts_.num_aggressive_levels);
  CoarsenParams cp;
  cp.algo = opts_.coarsening;
  cp.weights = opts_.coarsen_weights;
  cp.seed = coarsen_level_seed(opts_.seed, lvl_);
  cp.num_threads = opts_.setup_threads;
  Splitting split = coarsen_parallel(s, cp);
  if (aggressive) split = coarsen_aggressive_parallel(s, split, cp);

  const Index nc = count_coarse(split);
  if (nc == 0 || nc >= n ||
      static_cast<double>(nc) >
          opts_.max_coarsen_ratio * static_cast<double>(n)) {
    done_ = true;  // coarsening stalled; keep current coarsest level
    return false;
  }

  // Aggressive coarsening leaves F points without strong C neighbors, so
  // it always pairs with multipass interpolation (as in BoomerAMG).
  const InterpAlgo interp_algo =
      aggressive ? InterpAlgo::kMultipass : opts_.interpolation;
  CsrMatrix p =
      build_interpolation(interp_algo, a, s, split, opts_.setup_threads);
  p = truncate_interpolation(p, opts_.trunc_factor, opts_.setup_threads);

  CsrMatrix ac = galerkin_product(a, p, opts_.setup_threads);

  if (!funcs_.empty()) {
    std::vector<int> coarse_funcs;
    coarse_funcs.reserve(static_cast<std::size_t>(nc));
    for (std::size_t i = 0; i < split.size(); ++i) {
      if (split[i] == PointType::kCoarse) coarse_funcs.push_back(funcs_[i]);
    }
    funcs_ = std::move(coarse_funcs);
  }

  levels_.back().p = std::move(p);
  levels_.back().split = std::move(split);
  levels_.push_back(AmgLevel{std::move(ac), {}, {}});
  ++lvl_;
  return !done_;
}

Hierarchy HierarchyBuilder::finish() {
  while (step()) {
  }

  Hierarchy h;
  h.levels_ = std::move(levels_);

  // Demote per the precision policy only after the whole (fp64) setup is
  // done: Galerkin products, strength, and interpolation all see full
  // precision, and the stored hierarchy is identical whether it is used
  // fresh or round-tripped through the spill serializer. The interpolant
  // P_k couples level k to level k+1 and follows the coarser level's
  // width.
  const std::size_t nl = h.levels_.size();
  const std::size_t fine_nnz = static_cast<std::size_t>(h.levels_[0].a.nnz());
  for (std::size_t k = 0; k < nl; ++k) {
    const Precision pk = opts_.precision.level_precision(
        k, nl, static_cast<std::size_t>(h.levels_[k].a.nnz()), fine_nnz);
    h.levels_[k].a.convert_precision(pk);
    if (k + 1 < nl && h.levels_[k].p.rows() > 0) {
      const Precision pc = opts_.precision.level_precision(
          k + 1, nl, static_cast<std::size_t>(h.levels_[k + 1].a.nnz()),
          fine_nnz);
      h.levels_[k].p.convert_precision(pc);
    }
  }
  return h;
}

Hierarchy Hierarchy::build(CsrMatrix a_fine, const AmgOptions& opts) {
  HierarchyBuilder builder(std::move(a_fine), opts);
  return builder.finish();
}

Hierarchy Hierarchy::from_levels(std::vector<AmgLevel> levels) {
  if (levels.empty()) {
    throw std::invalid_argument("from_levels: need at least one level");
  }
  for (std::size_t k = 0; k < levels.size(); ++k) {
    const bool coarsest = k + 1 == levels.size();
    if (levels[k].a.rows() != levels[k].a.cols()) {
      throw std::invalid_argument("from_levels: non-square operator");
    }
    if (coarsest) {
      if (levels[k].p.rows() != 0) {
        throw std::invalid_argument(
            "from_levels: coarsest level must have no interpolation");
      }
    } else {
      if (levels[k].p.rows() != levels[k].a.rows() ||
          levels[k].p.cols() != levels[k + 1].a.rows()) {
        throw std::invalid_argument(
            "from_levels: interpolation shape mismatch at level " +
            std::to_string(k));
      }
    }
  }
  Hierarchy h;
  h.levels_ = std::move(levels);
  return h;
}

double Hierarchy::operator_complexity() const {
  double total = 0.0;
  for (const auto& l : levels_) total += static_cast<double>(l.a.nnz());
  return total / static_cast<double>(levels_.front().a.nnz());
}

double Hierarchy::grid_complexity() const {
  double total = 0.0;
  for (const auto& l : levels_) total += static_cast<double>(l.a.rows());
  return total / static_cast<double>(levels_.front().a.rows());
}

std::string Hierarchy::summary() const {
  std::ostringstream os;
  os << "AMG hierarchy: " << levels_.size() << " levels\n";
  for (std::size_t k = 0; k < levels_.size(); ++k) {
    os << "  level " << k << ": " << levels_[k].a.summary();
    if (levels_[k].p.rows() > 0) {
      os << "  (P: " << levels_[k].p.summary() << ")";
    }
    os << '\n';
  }
  os << "  operator complexity " << operator_complexity()
     << ", grid complexity " << grid_complexity() << '\n';
  return os.str();
}

}  // namespace asyncmg
