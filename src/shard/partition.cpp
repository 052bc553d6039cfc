#include "shard/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace asyncmg {

std::size_t ShardPlan::owner_of(Index row) const {
  // Ranges are contiguous and sorted: binary search on begin.
  std::size_t lo = 0, hi = num_shards - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (static_cast<Index>(owned[mid].begin) <= row) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::size_t ShardPlan::total_halo() const {
  std::size_t t = 0;
  for (const auto& h : halo) t += h.size();
  return t;
}

std::vector<Range> shard_owned_ranges(const CsrMatrix& a,
                                      std::size_t num_shards) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("shard plan: matrix must be square");
  }
  if (num_shards < 1) {
    throw std::invalid_argument("shard plan: num_shards must be >= 1");
  }
  if (num_shards > static_cast<std::size_t>(a.rows())) {
    throw std::invalid_argument("shard plan: more shards than matrix rows");
  }
  return nnz_balanced_chunks(a.row_ptr(), num_shards);
}

ShardPlan make_shard_plan(const CsrMatrix& a, std::size_t num_shards) {
  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.n = a.rows();
  plan.owned = shard_owned_ranges(a, num_shards);

  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();

  // Halo of each shard: referenced columns outside the owned range,
  // deduplicated and sorted.
  plan.halo.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const Range rg = plan.owned[s];
    std::vector<Index>& h = plan.halo[s];
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      for (Index k = rp[i]; k < rp[i + 1]; ++k) {
        const Index g = ci[static_cast<std::size_t>(k)];
        if (g < static_cast<Index>(rg.begin) ||
            g >= static_cast<Index>(rg.end)) {
          h.push_back(g);
        }
      }
    }
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());
  }

  // Send lists and the matching receiver-side ghost slots. halo[s] is
  // sorted and owner ranges are contiguous, so splitting it by owner keeps
  // each per-peer list sorted -- the alignment the packed payloads rely on.
  plan.send.assign(num_shards, std::vector<std::vector<Index>>(num_shards));
  plan.ghost_slots.assign(
      num_shards, std::vector<std::vector<std::size_t>>(num_shards));
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t owned_size = plan.owned[s].size();
    for (std::size_t pos = 0; pos < plan.halo[s].size(); ++pos) {
      const Index g = plan.halo[s][pos];
      const std::size_t p = plan.owner_of(g);
      plan.send[p][s].push_back(g);
      plan.ghost_slots[s][p].push_back(owned_size + pos);
    }
  }

  // Local stencils: global -> local map per shard (owned first, ghosts
  // after, ghosts in sorted-global order).
  std::vector<Index> g2l(static_cast<std::size_t>(plan.n));
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::fill(g2l.begin(), g2l.end(), Index{-1});
    const Range rg = plan.owned[s];
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      g2l[i] = static_cast<Index>(i - rg.begin);
    }
    for (std::size_t pos = 0; pos < plan.halo[s].size(); ++pos) {
      g2l[static_cast<std::size_t>(plan.halo[s][pos])] =
          static_cast<Index>(rg.size() + pos);
    }
    plan.local_a.push_back(LocalStencil::from_rows(
        a, static_cast<Index>(rg.begin), static_cast<Index>(rg.end), g2l,
        static_cast<Index>(plan.local_size(s))));
  }
  return plan;
}

}  // namespace asyncmg
