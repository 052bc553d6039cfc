#include "async/runtime.hpp"

#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "async/driver.hpp"
#include "async/team.hpp"
#include "sparse/vec.hpp"
#include "telemetry/clock.hpp"
#include "util/partition.hpp"

namespace asyncmg {

std::string runtime_config_name(const RuntimeOptions& o) {
  std::string s = o.mode == ExecMode::kSynchronous ? "sync"
                  : o.mode == ExecMode::kScripted  ? "scripted"
                                                   : "async";
  s += o.write == WritePolicy::kLockWrite ? " lock-write" : " atomic-write";
  if (o.mode == ExecMode::kAsynchronous) {
    s += o.rescomp == ResComp::kLocal ? " local-res" : " global-res";
    if (o.residual_based) s += " r-based";
  }
  return s;
}

double RuntimeResult::mean_corrections() const {
  if (corrections.empty()) return 0.0;
  double total = 0.0;
  for (int c : corrections) total += c;
  return total / static_cast<double>(corrections.size());
}

namespace {

/// Runs `body(0..num_threads-1)` on freshly spawned threads and joins them.
void dispatch_threads(std::size_t num_threads,
                      const std::function<void(std::size_t)>& body) {
  std::vector<std::jthread> workers;
  workers.reserve(num_threads);
  for (std::size_t id = 0; id < num_threads; ++id) {
    workers.emplace_back(body, id);
  }
}

}  // namespace

RuntimeResult run_shared_memory(const AdditiveCorrector& corrector,
                                const Vector& b, Vector& x,
                                const RuntimeOptions& opts) {
  if (opts.num_threads == 0) {
    throw std::invalid_argument("num_threads must be >= 1");
  }
  const MgSetup& s = corrector.setup();

  Shared sh;
  sh.corr = &corrector;
  sh.s = &s;
  sh.b = &b;
  sh.x = &x;
  sh.opts = opts;
  sh.num_grids = corrector.num_grids();
  sh.num_threads = opts.num_threads;
  sh.counts = std::make_unique<std::atomic<int>[]>(sh.num_grids);
  sh.dead = std::make_unique<std::atomic<bool>[]>(sh.num_grids);
  for (std::size_t g = 0; g < sh.num_grids; ++g) {
    sh.counts[g].store(0);
    sh.dead[g].store(false);
  }
  sh.global_barrier = std::make_unique<std::barrier<>>(
      static_cast<std::ptrdiff_t>(sh.num_threads));
  if (opts.check_invariants) sh.x0 = x;
  if (sh.uses_shared_r()) {
    s.backend().csr_residual(s.a(0), b, x, sh.r, /*parallel=*/false);
  }

  std::vector<Team> teams = build_teams(sh);
  // May throw std::invalid_argument (scripted mode rejects a structurally
  // invalid schedule) -- before any thread starts.
  const std::unique_ptr<ScheduleDriver> driver = make_driver(sh, teams);

  // Flat global-id -> (team, rank) map, so one body serves every thread.
  struct Slot {
    Team* team = nullptr;
    std::size_t rank = 0;
  };
  std::vector<Slot> slots(sh.num_threads);
  for (Team& t : teams) {
    for (std::size_t r = 0; r < t.nthreads; ++r) {
      slots[t.first_thread + r] = Slot{&t, r};
    }
  }
  dispatch_threads(sh.num_threads, [&](std::size_t id) {
    driver->worker(Ctx{&sh, slots[id].team, slots[id].rank, id});
  });

  RuntimeResult result;
  result.seconds = sh.clock.seconds();
  result.corrections.resize(sh.num_grids);
  for (std::size_t g = 0; g < sh.num_grids; ++g) {
    result.corrections[static_cast<std::size_t>(g)] =
        sh.counts[g].load(std::memory_order_relaxed);
  }
  result.trace = std::move(sh.trace);
  Vector r;
  s.backend().csr_residual(s.a(0), b, x, r, /*parallel=*/false);
  const double bnorm = norm2(b);
  result.final_rel_res = norm2(r) * (bnorm > 0.0 ? 1.0 / bnorm : 1.0);
  driver->finalize(result);
  return result;
}

RuntimeResult run_mult_threaded(const MgSetup& setup, const Vector& b,
                                Vector& x, int t_max, std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("num_threads must be >= 1");
  }
  const std::size_t nl = setup.num_levels();
  const std::size_t coarsest = nl - 1;

  // Level workspaces shared by all threads.
  std::vector<Vector> r(nl), e(nl), tmp(nl), tmp2(nl);
  std::vector<std::unique_ptr<Smoother>> sm(nl);
  for (std::size_t k = 0; k < nl; ++k) {
    const auto n = static_cast<std::size_t>(setup.a(k).rows());
    r[k].assign(n, 0.0);
    e[k].assign(n, 0.0);
    tmp[k].assign(n, 0.0);
    tmp2[k].assign(n, 0.0);
    SmootherOptions so = setup.options().smoother;
    so.num_blocks = num_threads;
    sm[k] = std::make_unique<Smoother>(setup.a(k), so);
  }

  std::barrier<> bar(static_cast<std::ptrdiff_t>(num_threads));
  SessionClock clock;

  auto worker = [&](std::size_t tid) {
    auto chunk = [&](std::size_t n) { return static_chunk(n, num_threads, tid); };
    auto rows = [&](std::size_t k) {
      return chunk(static_cast<std::size_t>(setup.a(k).rows()));
    };
    bar.arrive_and_wait();
    if (tid == 0) clock.start();
    bar.arrive_and_wait();

    for (int t = 0; t < t_max; ++t) {
      // Fine residual.
      {
        const Range rg = rows(0);
        setup.backend().csr_residual_rows(setup.a(0), b, x, r[0],
                                          static_cast<Index>(rg.begin),
                                          static_cast<Index>(rg.end));
      }
      bar.arrive_and_wait();

      // Downward sweep.
      for (std::size_t k = 0; k < coarsest; ++k) {
        if (tid < sm[k]->num_blocks()) {
          // Pre-smooth: e_k = M^{-1} r_k from zero.
          const Range blk = sm[k]->block(tid);
          for (std::size_t i = blk.begin; i < blk.end; ++i) e[k][i] = 0.0;
        }
        bar.arrive_and_wait();
        if (tid < sm[k]->num_blocks()) sm[k]->apply_zero_block(r[k], e[k], tid);
        bar.arrive_and_wait();
        {
          const Range rg = rows(k);
          setup.backend().csr_residual_rows(setup.a(k), r[k], e[k], tmp[k],
                                            static_cast<Index>(rg.begin),
                                            static_cast<Index>(rg.end));
        }
        bar.arrive_and_wait();
        {
          const Range rg = rows(k + 1);
          setup.backend().csr_spmv_rows(setup.r(k), tmp[k], r[k + 1],
                                        static_cast<Index>(rg.begin),
                                        static_cast<Index>(rg.end));
        }
        bar.arrive_and_wait();
      }

      // Coarsest solve.
      if (tid == 0) {
        if (!setup.coarse_solver().empty()) {
          setup.coarse_solver().solve(r[coarsest], e[coarsest]);
        } else {
          setup.smoother(coarsest).apply_zero(r[coarsest], e[coarsest]);
        }
      }
      bar.arrive_and_wait();

      // Upward sweep.
      for (std::size_t k = coarsest; k-- > 0;) {
        {
          const Range rg = rows(k);
          setup.backend().csr_spmv_rows(setup.p(k), e[k + 1], tmp[k],
                                        static_cast<Index>(rg.begin),
                                        static_cast<Index>(rg.end));
          for (std::size_t i = rg.begin; i < rg.end; ++i) e[k][i] += tmp[k][i];
        }
        bar.arrive_and_wait();
        {
          const Range rg = rows(k);
          setup.backend().csr_residual_rows(setup.a(k), r[k], e[k], tmp[k],
                                            static_cast<Index>(rg.begin),
                                            static_cast<Index>(rg.end));
        }
        bar.arrive_and_wait();
        if (tid < sm[k]->num_blocks()) {
          const Range blk = sm[k]->block(tid);
          for (std::size_t i = blk.begin; i < blk.end; ++i) tmp2[k][i] = 0.0;
          sm[k]->apply_zero_block(tmp[k], tmp2[k], tid);
          for (std::size_t i = blk.begin; i < blk.end; ++i) e[k][i] += tmp2[k][i];
        }
        bar.arrive_and_wait();
      }

      // Correct x.
      {
        const Range rg = rows(0);
        for (std::size_t i = rg.begin; i < rg.end; ++i) x[i] += e[0][i];
      }
      bar.arrive_and_wait();
    }
  };

  dispatch_threads(num_threads, worker);

  RuntimeResult result;
  result.seconds = clock.seconds();
  result.corrections.assign(setup.num_levels(), t_max);
  Vector res;
  setup.backend().csr_residual(setup.a(0), b, x, res, /*parallel=*/false);
  const double bnorm = norm2(b);
  result.final_rel_res = norm2(res) * (bnorm > 0.0 ? 1.0 / bnorm : 1.0);
  return result;
}

}  // namespace asyncmg
