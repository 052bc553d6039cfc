#pragma once
// Deterministic row-block domain partitioner for the sharded solver.
//
// The fine grid is split into `num_shards` contiguous row blocks balanced
// by nonzeros (util/partition's nnz_balanced_chunks over the CSR row
// pointer, the same policy the solve-phase thread chunking uses), and for
// each shard the plan precomputes everything the halo exchange needs:
//
//   * the sorted global indices of the shard's ghost (halo) entries -- the
//     columns its rows reference but does not own;
//   * per peer, the send list (owned indices some peer reads) and the
//     matching ghost slots on the receiving side, index-aligned so a packed
//     payload round-trips without any per-message index traffic;
//   * a LocalStencil of the shard's matrix rows in the local
//     [owned; ghosts] numbering (sparse/halo.hpp), preserving global
//     in-row order so local kernels are bitwise equal to global ones.
//
// The plan depends only on the matrix sparsity and the shard count, so the
// same inputs always produce the same placement (scripted multi-shard runs
// stay reproducible).

#include <vector>

#include "sparse/halo.hpp"
#include "util/partition.hpp"

namespace asyncmg {

struct ShardPlan {
  std::size_t num_shards = 1;
  Index n = 0;  // fine rows == fine cols
  /// Contiguous owned row range per shard; ranges cover [0, n) disjointly.
  std::vector<Range> owned;
  /// Per shard: sorted global indices of its ghost entries (columns read
  /// but not owned). Ghost g of shard s lives at local index
  /// owned[s].size() + (position of g in halo[s]).
  std::vector<std::vector<Index>> halo;
  /// send[s][p]: sorted global indices owned by s that shard p reads
  /// (equals halo[p] restricted to owned[s] -- the round-trip identity the
  /// tests check).
  std::vector<std::vector<std::vector<Index>>> send;
  /// ghost_slots[s][p]: local indices (into shard s's [owned; ghosts]
  /// vector) of the entries received from p, aligned with send[p][s].
  std::vector<std::vector<std::vector<std::size_t>>> ghost_slots;
  /// Shard-local matrix rows (local column numbering, global in-row order).
  std::vector<LocalStencil> local_a;

  std::size_t owner_of(Index row) const;
  std::size_t local_size(std::size_t s) const {
    return owned[s].size() + halo[s].size();
  }
  /// Total ghost entries across shards (the per-cycle halo traffic in
  /// doubles, counted once per reader).
  std::size_t total_halo() const;
};

/// ShardPlan::owned alone, for callers that need no halo lists or local
/// stencils (the shard loop, run_shard_worker). `a` must be square and
/// `num_shards` in [1, rows]; throws std::invalid_argument otherwise.
std::vector<Range> shard_owned_ranges(const CsrMatrix& a,
                                      std::size_t num_shards);

/// Builds the plan for `a`, with shard_owned_ranges' requirements.
ShardPlan make_shard_plan(const CsrMatrix& a, std::size_t num_shards);

}  // namespace asyncmg
