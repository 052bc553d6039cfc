#include "async/team.hpp"

#include <algorithm>

namespace asyncmg {

// ---------------------------------------------------------------------------
// Shared-vector access under the configured write policy.
// ---------------------------------------------------------------------------

void team_read_shared(const Ctx& c, const Vector& src, Vector& dst) {
  const Range rg = c.chunk(src.size());
  if (c.sh->opts.write == WritePolicy::kLockWrite) {
    // Align the team before rank 0 takes the global mutex: a teammate may
    // still be inside its own lock-taking code (e.g. the non-blocking
    // global-res refresh); locking before it finishes would deadlock the
    // team barrier below against the mutex.
    c.tbar();
    if (c.rank == 0) c.sh->lock.lock();
    c.tbar();
    for (std::size_t i = rg.begin; i < rg.end; ++i) dst[i] = src[i];
    c.tbar();
    if (c.rank == 0) c.sh->lock.unlock();
  } else {
    for (std::size_t i = rg.begin; i < rg.end; ++i) dst[i] = relaxed_load(src[i]);
    c.tbar();
  }
}

void team_add_shared(const Ctx& c, Vector& dst, const Vector& e) {
  const Range rg = c.chunk(dst.size());
  if (c.sh->opts.write == WritePolicy::kLockWrite) {
    c.tbar();  // see team_read_shared
    if (c.rank == 0) c.sh->lock.lock();
    c.tbar();
    for (std::size_t i = rg.begin; i < rg.end; ++i) dst[i] += e[i];
    c.tbar();
    if (c.rank == 0) c.sh->lock.unlock();
  } else {
    for (std::size_t i = rg.begin; i < rg.end; ++i) relaxed_add(dst[i], e[i]);
    c.tbar();
  }
}

void team_residual_update_shared(const Ctx& c, const CsrMatrix& a,
                                 const Vector& e, Vector& r) {
  const Range rg = c.chunk(static_cast<std::size_t>(a.rows()));
  const auto rb = static_cast<Index>(rg.begin);
  const auto re = static_cast<Index>(rg.end);
  if (c.sh->opts.write == WritePolicy::kLockWrite) {
    c.tbar();  // see team_read_shared
    if (c.rank == 0) c.sh->lock.lock();
    c.tbar();
    a.with_values([&](const auto* v) {
      const auto rp = a.row_ptr();
      const auto ci = a.col_idx();
      for (Index i = rb; i < re; ++i) {
        double s = 0.0;
        for (Index k = rp[i]; k < rp[i + 1]; ++k) {
          s += v[static_cast<std::size_t>(k)] *
               e[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
        }
        r[static_cast<std::size_t>(i)] -= s;
      }
    });
    c.tbar();
    if (c.rank == 0) c.sh->lock.unlock();
  } else {
    a.with_values([&](const auto* v) {
      const auto rp = a.row_ptr();
      const auto ci = a.col_idx();
      for (Index i = rb; i < re; ++i) {
        double s = 0.0;
        for (Index k = rp[i]; k < rp[i + 1]; ++k) {
          s += v[static_cast<std::size_t>(k)] *
               e[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
        }
        relaxed_add(r[static_cast<std::size_t>(i)], -s);
      }
    });
    c.tbar();
  }
}

void thread_refresh_global_residual(const Ctx& c) {
  const CsrMatrix& a = c.sh->s->a(0);
  const Vector& b = *c.sh->b;
  const Vector& x = *c.sh->x;
  Vector& r = c.sh->r;
  const Range rg = static_chunk(static_cast<std::size_t>(a.rows()),
                                c.sh->num_threads, c.global_id);
  const bool locking = c.sh->opts.write == WritePolicy::kLockWrite;
  if (locking) c.sh->lock.lock();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  a.with_values([&](const auto* v) {
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      double s = b[i];
      const auto row = static_cast<Index>(i);
      for (Index k = rp[row]; k < rp[row + 1]; ++k) {
        const auto j = static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]);
        s -= v[static_cast<std::size_t>(k)] *
             (locking ? x[j] : relaxed_load(x[j]));
      }
      if (locking) {
        r[i] = s;
      } else {
        relaxed_store(r[i], s);
      }
    }
  });
  if (locking) c.sh->lock.unlock();
}

// ---------------------------------------------------------------------------
// Team-parallel numerical kernels.
// ---------------------------------------------------------------------------

void team_spmv(const Ctx& c, const CsrMatrix& m, const Vector& v, Vector& y) {
  const Range rg = c.chunk(static_cast<std::size_t>(m.rows()));
  c.sh->s->backend().csr_spmv_rows(m, v, y, static_cast<Index>(rg.begin),
                                   static_cast<Index>(rg.end));
  c.tbar();
}

void team_smooth_zero(const Ctx& c, const Smoother& sm, const Vector& rhs,
                      Vector& out, Vector& lvl_scratch, int sweeps) {
  const std::size_t n = rhs.size();
  const Range rg = c.chunk(n);
  for (std::size_t i = rg.begin; i < rg.end; ++i) out[i] = 0.0;
  c.tbar();
  const bool has_block = c.rank < sm.num_blocks();
  if (sm.type() == SmootherType::kAsyncGS) {
    // Asynchronous smoothing: no intra-sweep or inter-sweep barriers.
    for (int s = 0; s < sweeps; ++s) {
      if (has_block) sm.async_gs_sweep_block(rhs, out, c.rank);
    }
    c.tbar();
    return;
  }
  if (has_block) sm.apply_zero_block(rhs, out, c.rank);
  c.tbar();
  for (int s = 1; s < sweeps; ++s) {
    // scratch = rhs - A out over this rank's rows.
    c.sh->s->backend().csr_residual_rows(sm.matrix(), rhs, out, lvl_scratch,
                                         static_cast<Index>(rg.begin),
                                         static_cast<Index>(rg.end));
    c.tbar();
    if (has_block) {
      // out_block += M^{-1} scratch_block: apply_zero_block writes the
      // block's solve into the team's shared sweep buffer, folded into out
      // immediately. (The block rows coincide with this rank's chunk rows;
      // every rank writes its own block's rows before reading them, so the
      // buffer needs no zeroing and sharing it across ranks is race-free.)
      const Range blk = sm.block(c.rank);
      Vector& delta = c.team->sweep_delta;
      sm.apply_zero_block(lvl_scratch, delta, c.rank);
      for (std::size_t i = blk.begin; i < blk.end; ++i) out[i] += delta[i];
    }
    c.tbar();
  }
}

void team_correction(const Ctx& c, std::size_t grid_pos) {
  Team& t = *c.team;
  const Shared& sh = *c.sh;
  const MgSetup& s = *sh.s;
  const AdditiveOptions& ao = sh.corr->options();
  const std::size_t k = t.first_grid + grid_pos;
  const std::size_t coarsest = s.num_levels() - 1;
  const bool multadd = ao.kind == AdditiveKind::kMultadd;

  // Restrict down to level k.
  for (std::size_t j = 0; j < k; ++j) {
    const CsrMatrix& r = multadd ? s.rbar(j) : s.r(j);
    team_spmv(c, r, t.rchain[j], t.rchain[j + 1]);
  }
  const Vector& rk = t.rchain[k];
  Vector& ek = t.echain[k];

  if (k == coarsest) {
    if (c.rank == 0) {
      if (!s.coarse_solver().empty()) {
        s.coarse_solver().solve(rk, ek);
      } else {
        s.smoother(k).apply_zero(rk, ek);
      }
    }
    c.tbar();
  } else if (ao.kind == AdditiveKind::kAfacx) {
    // e_{k+1} from s2 sweeps (or the exact solve when k+1 is the coarsest
    // level and an LU factorization exists).
    team_spmv(c, s.r(k), rk, t.rchain[k + 1]);
    if (k + 1 == coarsest && !s.coarse_solver().empty()) {
      if (c.rank == 0) s.coarse_solver().solve(t.rchain[k + 1], t.u);
      c.tbar();
    } else {
      team_smooth_zero(c, *t.smooth_k1[grid_pos], t.rchain[k + 1], t.u,
                       t.scratch[k + 1], ao.afacx_s2);
    }
    // rhs = r_k - A_k P u, then s1 sweeps from zero.
    team_spmv(c, s.p(k), t.u, t.pu);
    team_spmv(c, s.a(k), t.pu, t.scratch[k]);
    {
      const Range rg = c.chunk(rk.size());
      for (std::size_t i = rg.begin; i < rg.end; ++i) {
        t.scratch[k][i] = rk[i] - t.scratch[k][i];
      }
      c.tbar();
    }
    // Note scratch[k] doubles as the rhs; sweeps > 1 need a second scratch.
    team_smooth_zero(c, *t.smooth_k[grid_pos], t.scratch[k], ek, t.pu,
                     ao.afacx_s1);
  } else {
    // Multadd / BPX: Lambda_k = one sweep from a zero guess.
    team_smooth_zero(c, *t.smooth_k[grid_pos], rk, ek, t.scratch[k], 1);
  }

  // Prolong back up to the fine grid.
  for (std::size_t j = k; j-- > 0;) {
    const CsrMatrix& p = multadd ? s.pbar(j) : s.p(j);
    team_spmv(c, p, t.echain[j + 1], t.echain[j]);
  }
}

void team_refresh_residual(const Ctx& c, bool drop_shared_read) {
  Team& t = *c.team;
  Shared& sh = *c.sh;
  const CsrMatrix& a = sh.s->a(0);
  if (sh.opts.residual_based) {
    // The commit's residual effect must still be published (drops affect
    // reads only), so the shared update always runs.
    team_residual_update_shared(c, a, t.echain[0], sh.r);
    if (!drop_shared_read) team_read_shared(c, sh.r, t.rchain[0]);
  } else if (sh.opts.rescomp == ResComp::kLocal) {
    if (drop_shared_read) return;  // keep the stale local view untouched
    team_read_shared(c, *sh.x, t.xk);
    const Range rg = c.chunk(t.rchain[0].size());
    sh.s->backend().csr_residual_rows(a, *sh.b, t.xk, t.rchain[0],
                                      static_cast<Index>(rg.begin),
                                      static_cast<Index>(rg.end));
    c.tbar();
  } else {
    thread_refresh_global_residual(c);  // No Wait: no barrier
    if (!drop_shared_read) team_read_shared(c, sh.r, t.rchain[0]);
  }
}

void team_accumulate(const Ctx& c, const Vector& e, Vector& acc) {
  const Range rg = c.chunk(acc.size());
  for (std::size_t i = rg.begin; i < rg.end; ++i) acc[i] += e[i];
  c.tbar();
}

std::vector<Team> build_teams(const Shared& sh) {
  const MgSetup& s = *sh.s;
  const std::size_t grids = sh.num_grids;
  const std::size_t threads = sh.num_threads;
  const AdditiveOptions& ao = sh.corr->options();

  std::vector<Team> teams;
  if (threads >= grids) {
    // One team per grid, threads balanced by work.
    const std::vector<std::size_t> counts =
        assign_threads_to_grids(sh.corr->work(), threads);
    const std::vector<Range> ranges = thread_ranges(counts);
    teams.resize(grids);
    for (std::size_t k = 0; k < grids; ++k) {
      teams[k].first_grid = k;
      teams[k].num_grids = 1;
      teams[k].nthreads = counts[k];
      teams[k].first_thread = ranges[k].begin;
    }
  } else {
    // Fewer threads than grids: single-thread teams own contiguous grid
    // ranges.
    teams.resize(threads);
    for (std::size_t tid = 0; tid < threads; ++tid) {
      const Range gr = static_chunk(grids, threads, tid);
      teams[tid].first_grid = gr.begin;
      teams[tid].num_grids = gr.size();
      teams[tid].nthreads = 1;
      teams[tid].first_thread = tid;
    }
  }

  for (Team& t : teams) {
    t.barrier = std::make_unique<std::barrier<>>(
        static_cast<std::ptrdiff_t>(t.nthreads));
    const std::size_t top = t.first_grid + t.num_grids - 1;
    const std::size_t levels_needed =
        std::min(s.num_levels(), top + 2);  // +1 level for AFACx's e_{k+1}
    t.rchain.resize(levels_needed);
    t.echain.resize(levels_needed);
    t.scratch.resize(levels_needed);
    for (std::size_t j = 0; j < levels_needed; ++j) {
      const auto n = static_cast<std::size_t>(s.a(j).rows());
      t.rchain[j].assign(n, 0.0);
      t.echain[j].assign(n, 0.0);
      t.scratch[j].assign(n, 0.0);
    }
    t.xk.assign(static_cast<std::size_t>(s.a(0).rows()), 0.0);
    if (sh.opts.check_invariants) {
      t.commit_acc.assign(static_cast<std::size_t>(s.a(0).rows()), 0.0);
    }
    // AFACx u lives on level k+1 and pu on level k for each owned grid k;
    // sizes shrink with depth, so the finest owned grid dictates both.
    t.u.assign(static_cast<std::size_t>(
                   s.a(std::min(t.first_grid + 1, s.num_levels() - 1)).rows()),
               0.0);
    t.pu.assign(static_cast<std::size_t>(s.a(t.first_grid).rows()), 0.0);
    // Level sizes shrink with depth, so the finest grid this team smooths
    // bounds every level's sweep buffer.
    t.sweep_delta.assign(static_cast<std::size_t>(s.a(t.first_grid).rows()),
                         0.0);

    SmootherOptions so = s.options().smoother;
    so.num_blocks = t.nthreads;
    for (std::size_t g = 0; g < t.num_grids; ++g) {
      const std::size_t k = t.first_grid + g;
      t.smooth_k.push_back(std::make_unique<Smoother>(s.a(k), so));
      if (ao.kind == AdditiveKind::kAfacx && k + 1 < s.num_levels()) {
        t.smooth_k1.push_back(std::make_unique<Smoother>(s.a(k + 1), so));
      } else {
        t.smooth_k1.push_back(nullptr);
      }
    }
  }
  return teams;
}

}  // namespace asyncmg
