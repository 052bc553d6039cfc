// Tests for the solver service layer: persistent pool, hierarchy cache
// (including spill-to-disk), batched multi-RHS solves, and the request API.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "mesh/problems.hpp"
#include "multigrid/mult.hpp"
#include "multigrid/pcg.hpp"
#include "service/batch_solver.hpp"
#include "service/fingerprint.hpp"
#include "service/hierarchy_cache.hpp"
#include "service/solve_service.hpp"
#include "service/solver_pool.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

MgOptions test_mg_options() {
  MgOptions mo;
  mo.smoother.type = SmootherType::kWeightedJacobi;
  mo.smoother.omega = 0.9;
  return mo;
}

Vector rhs_for(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return random_vector(n, rng);
}

// Independent reference for the service layer's symmetric path: PCG through
// the CSR overload, on the scalar backend's CSR kernels, preconditioned by
// a separate symmetric V(1,1) built on the same setup.
SolveStats pcg_reference(const MgSetup& setup, const Vector& b, Vector& x,
                         int t_max, double tol) {
  PcgOptions po;
  po.max_iterations = t_max;
  po.tol = tol;
  return pcg_solve(
      setup.a(0), b, x,
      make_mg_preconditioner(setup, MgPreconditionerKind::kSymmetricVCycle),
      po);
}

// Cycles the stationary V(1,1) solve needs for the same input; a solve that
// took fewer steps ran PCG.
int stationary_cycles(const MgSetup& setup, const Vector& b, int t_max,
                      double tol) {
  Vector x(b.size(), 0.0);
  MultiplicativeMg mg(setup);
  return mg.solve(b, x, t_max, tol).cycles;
}

// 7pt stencil on an n^3 grid with first-order upwinded convection along x:
// a non-symmetric M-matrix.
CsrMatrix upwind_7pt(Index n, double c) {
  std::vector<Triplet> t;
  const auto id = [n](Index i, Index j, Index k) {
    return (k * n + j) * n + i;
  };
  for (Index k = 0; k < n; ++k) {
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) {
        const Index row = id(i, j, k);
        t.push_back({row, row, 6.0 + c});
        if (i > 0) t.push_back({row, id(i - 1, j, k), -1.0 - c});
        if (i + 1 < n) t.push_back({row, id(i + 1, j, k), -1.0});
        if (j > 0) t.push_back({row, id(i, j - 1, k), -1.0});
        if (j + 1 < n) t.push_back({row, id(i, j + 1, k), -1.0});
        if (k > 0) t.push_back({row, id(i, j, k - 1), -1.0});
        if (k + 1 < n) t.push_back({row, id(i, j, k + 1), -1.0});
      }
    }
  }
  return CsrMatrix::from_triplets(n * n * n, n * n * n, std::move(t));
}

// `a` with its symmetric pair (0,1)/(1,0) sign-flipped: still symmetric and
// diagonally dominant, and its value array differs from a's in the top bit
// of two words only.
CsrMatrix flip_pair01(const CsrMatrix& a) {
  CsrMatrix f = a;
  const std::span<double> v = f.values_mutable();
  for (Index row = 0; row < 2; ++row) {
    for (Index k = a.row_ptr()[row]; k < a.row_ptr()[row + 1]; ++k) {
      if (a.col_idx()[k] == 1 - row) v[k] = -v[k];
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// SolverPool
// ---------------------------------------------------------------------------

TEST(SolverPool, RejectsZeroThreads) {
  EXPECT_THROW(SolverPool(0), std::invalid_argument);
}

TEST(SolverPool, PostRunsEveryTask) {
  SolverPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100u);
}

TEST(SolverPool, ParallelForCoversEveryIndexOnce) {
  SolverPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  pool.parallel_for(touched.size(), [&](std::size_t, std::size_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(SolverPool, ParallelForSlotsAreDense) {
  SolverPool pool(3);
  std::atomic<std::size_t> max_slot{0};
  pool.parallel_for(64, [&](std::size_t slot, std::size_t) {
    std::size_t cur = max_slot.load(std::memory_order_relaxed);
    while (slot > cur &&
           !max_slot.compare_exchange_weak(cur, slot,
                                           std::memory_order_relaxed)) {
    }
  });
  EXPECT_LT(max_slot.load(), pool.size());
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

TEST(Fingerprint, IdenticalMatricesShareFingerprint) {
  Problem p1 = make_laplace_7pt(6);
  Problem p2 = make_laplace_7pt(6);
  EXPECT_EQ(matrix_fingerprint(p1.a), matrix_fingerprint(p2.a));
}

TEST(Fingerprint, ValueAndShapeChangesAreDetected) {
  Problem p = make_laplace_7pt(6);
  const MatrixFingerprint base = matrix_fingerprint(p.a);

  CsrMatrix perturbed = p.a;
  perturbed.values_mutable()[0] += 1e-13;  // one bit of one value
  EXPECT_NE(matrix_fingerprint(perturbed), base);

  // Two sign flips are two bit-63 differences, which plain word-wise FNV
  // carries through every later multiply and then cancels.
  EXPECT_NE(matrix_fingerprint(flip_pair01(p.a)), base);

  Problem other = make_laplace_7pt(7);
  EXPECT_NE(matrix_fingerprint(other.a), base);

  EXPECT_NE(base.to_string().find("h"), std::string::npos);
}

// ---------------------------------------------------------------------------
// HierarchyCache
// ---------------------------------------------------------------------------

TEST(HierarchyCache, HitsMissesAndSingleSetup) {
  HierarchyCacheOptions co;
  co.mg = test_mg_options();
  HierarchyCache cache(co);
  Problem p = make_laplace_7pt(6);

  bool hit = true;
  auto s1 = cache.get_or_build(p.a, &hit);
  EXPECT_FALSE(hit);
  auto s2 = cache.get_or_build(p.a, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(s1.get(), s2.get());

  const HierarchyCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.setups_built, 1u);
  EXPECT_EQ(st.resident_entries, 1u);
  EXPECT_GT(st.resident_bytes, 0u);
}

TEST(HierarchyCache, EvictsLeastRecentlyUsedUnderBudget) {
  HierarchyCacheOptions co;
  co.mg = test_mg_options();
  co.max_bytes = 1;  // nothing fits, but one entry is always kept
  HierarchyCache cache(co);
  Problem a = make_laplace_7pt(6);
  Problem b = make_laplace_7pt(7);

  auto sa = cache.get_or_build(a.a);
  auto sb = cache.get_or_build(b.a);
  const HierarchyCacheStats st = cache.stats();
  EXPECT_EQ(st.resident_entries, 1u);
  EXPECT_EQ(st.evictions, 1u);
  // The returned shared_ptr keeps the evicted setup alive for the caller.
  EXPECT_GT(sa->num_levels(), 0u);

  // Re-requesting the evicted matrix is a miss that rebuilds.
  bool hit = true;
  cache.get_or_build(a.a, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().setups_built, 3u);
}

TEST(HierarchyCache, SpilledHierarchyReloadsWithIdenticalConvergence) {
  const std::string dir = "/tmp/asyncmg_cache_spill_test";
  std::filesystem::create_directories(dir);

  HierarchyCacheOptions co;
  co.mg = test_mg_options();
  co.max_bytes = 1;
  co.spill_dir = dir;
  HierarchyCache cache(co);

  Problem a = make_laplace_7pt(8);
  Problem b = make_laplace_7pt(6);
  const Vector rhs = rhs_for(static_cast<std::size_t>(a.a.rows()), 7);

  // Reference convergence history from the freshly built setup.
  auto fresh = cache.get_or_build(a.a);
  Vector x_ref(rhs.size(), 0.0);
  MultiplicativeMg mg_ref(*fresh);
  const SolveStats ref = mg_ref.solve(rhs, x_ref, 15);

  // Evict A to disk, then request it again: served by spill load, no new
  // AMG setup phase.
  cache.get_or_build(b.a);
  ASSERT_EQ(cache.stats().spill_writes, 1u);
  bool hit = true;
  auto reloaded = cache.get_or_build(a.a, &hit);
  EXPECT_FALSE(hit);
  const HierarchyCacheStats st = cache.stats();
  EXPECT_EQ(st.spill_loads, 1u);
  EXPECT_EQ(st.setups_built, 2u);  // one per matrix; the reload built none

  Vector x2(rhs.size(), 0.0);
  MultiplicativeMg mg2(*reloaded);
  const SolveStats again = mg2.solve(rhs, x2, 15);
  ASSERT_EQ(again.rel_res_history.size(), ref.rel_res_history.size());
  for (std::size_t t = 0; t < ref.rel_res_history.size(); ++t) {
    EXPECT_NEAR(again.rel_res_history[t], ref.rel_res_history[t], 1e-13)
        << "cycle " << t;
  }
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    EXPECT_NEAR(x2[i], x_ref[i], 1e-12);
  }
  std::filesystem::remove_all(dir);
}

// Concurrent lookups over a working set larger than the byte budget: the
// cache must keep evicting/spilling/reloading under contention without
// losing accounting coherence or handing out unusable setups.
TEST(HierarchyCache, ConcurrentEvictionAndSpillReloadStaysCoherent) {
  const std::string dir = "/tmp/asyncmg_cache_concurrent_test";
  std::filesystem::create_directories(dir);

  HierarchyCacheOptions co;
  co.mg = test_mg_options();
  co.max_bytes = 1;  // every insert evicts the previous resident entry
  co.spill_dir = dir;
  HierarchyCache cache(co);

  std::vector<Problem> work;
  for (Index n : {5, 6, 7}) work.push_back(make_laplace_7pt(n));

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::barrier gate(kThreads);
  std::atomic<std::uint64_t> observed_hits{0};
  std::atomic<int> bad_setups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      gate.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        const Problem& p =
            work[static_cast<std::size_t>(tid + round) % work.size()];
        bool hit = false;
        auto setup = cache.get_or_build(p.a, &hit);
        if (hit) observed_hits.fetch_add(1, std::memory_order_relaxed);
        // The returned setup must always be usable and must match the
        // requested matrix, even if it was evicted the instant the lock
        // was released.
        if (!setup || setup->num_levels() == 0 ||
            setup->a(0).rows() != p.a.rows()) {
          bad_setups.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad_setups.load(), 0);
  const HierarchyCacheStats st = cache.stats();
  // Every lookup is exactly one hit or one miss...
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(st.hits, observed_hits.load());
  // ...and every miss was served by either a fresh build or a spill load.
  EXPECT_EQ(st.misses, st.setups_built + st.spill_loads);
  // The tiny budget forces the spill path to actually run.
  EXPECT_GT(st.spill_loads, 0u);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_EQ(st.resident_entries, 1u);

  // A post-contention reload still converges identically to a fresh build.
  const Vector rhs = rhs_for(static_cast<std::size_t>(work[0].a.rows()), 11);
  auto reloaded = cache.get_or_build(work[0].a);
  Vector x_cache(rhs.size(), 0.0);
  MultiplicativeMg mg_cache(*reloaded);
  const SolveStats from_cache = mg_cache.solve(rhs, x_cache, 10);

  MgSetup fresh(Hierarchy::build(work[0].a, co.mg.amg), co.mg);
  Vector x_fresh(rhs.size(), 0.0);
  MultiplicativeMg mg_fresh(fresh);
  const SolveStats direct = mg_fresh.solve(rhs, x_fresh, 10);
  ASSERT_EQ(from_cache.rel_res_history.size(), direct.rel_res_history.size());
  for (std::size_t t = 0; t < direct.rel_res_history.size(); ++t) {
    EXPECT_NEAR(from_cache.rel_res_history[t], direct.rel_res_history[t],
                1e-13);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// BatchSolver
// ---------------------------------------------------------------------------

TEST(BatchSolver, MatchesIndependentSolves) {
  Problem p = make_laplace_7pt(8);
  const auto n = static_cast<std::size_t>(p.a.rows());
  auto setup = std::make_shared<const MgSetup>(
      Hierarchy::build(p.a, test_mg_options().amg), test_mg_options());

  std::vector<Vector> rhs;
  for (std::uint64_t i = 0; i < 9; ++i) rhs.push_back(rhs_for(n, 100 + i));

  BatchOptions bo;
  bo.t_max = 20;
  bo.tol = 1e-10;
  SolverPool pool(4);
  BatchSolver batch(setup, &pool, bo);
  const std::vector<BatchResult> got = batch.solve_all(rhs);
  ASSERT_EQ(got.size(), rhs.size());

  ASSERT_TRUE(setup->symmetric());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    Vector x(n, 0.0);
    const SolveStats ref = pcg_reference(*setup, rhs[i], x, bo.t_max, bo.tol);
    EXPECT_NEAR(got[i].stats.final_rel_res(), ref.final_rel_res(), 1e-12);
    EXPECT_LT(got[i].stats.final_rel_res(), 1e-5);
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(got[i].x[j], x[j], 1e-12);
    EXPECT_LT(got[i].stats.cycles,
              stationary_cycles(*setup, rhs[i], bo.t_max, bo.tol));
  }
}

TEST(BatchSolver, NullPoolRunsSequentially) {
  Problem p = make_laplace_7pt(6);
  const auto n = static_cast<std::size_t>(p.a.rows());
  auto setup = std::make_shared<const MgSetup>(
      Hierarchy::build(p.a, test_mg_options().amg), test_mg_options());
  BatchSolver batch(setup, nullptr, BatchOptions{10, 1e-8});
  const auto got = batch.solve_all({rhs_for(n, 1), rhs_for(n, 2)});
  ASSERT_EQ(got.size(), 2u);
  for (const BatchResult& r : got) EXPECT_LT(r.stats.final_rel_res(), 1e-3);
}

TEST(BatchSolver, RejectsMismatchedRhs) {
  Problem p = make_laplace_7pt(6);
  auto setup = std::make_shared<const MgSetup>(
      Hierarchy::build(p.a, test_mg_options().amg), test_mg_options());
  BatchSolver batch(setup, nullptr);
  EXPECT_THROW(batch.solve_all({Vector(3, 1.0)}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SolveService
// ---------------------------------------------------------------------------

ServiceOptions small_service_options(std::size_t threads = 4) {
  ServiceOptions so;
  so.num_threads = threads;
  so.cache.mg = test_mg_options();
  so.default_t_max = 30;
  so.default_tol = 1e-9;
  return so;
}

TEST(SolveService, SubmitSolvesAndHitsCacheOnRepeat) {
  SolveService svc(small_service_options());
  Problem p = make_laplace_7pt(8);
  const auto n = static_cast<std::size_t>(p.a.rows());

  auto f1 = svc.submit(p.a, rhs_for(n, 1));
  const SolveResponse r1 = f1.get();
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_FALSE(r1.timed_out);
  EXPECT_LT(r1.stats.final_rel_res(), 1e-8);

  auto f2 = svc.submit(p.a, rhs_for(n, 2));
  const SolveResponse r2 = f2.get();
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_LT(r2.stats.final_rel_res(), 1e-8);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.cache.setups_built, 1u);
  EXPECT_GE(st.latency_p95, st.latency_p50);
  EXPECT_GT(st.latency_mean, 0.0);
}

TEST(SolveService, SignFlippedOperatorMissesTheCache) {
  // A' differs from A by two sign flips. A fingerprint that cannot tell
  // them apart serves A's setup for A', whose answer then reports
  // convergence at a true relative residual above 1e-2.
  SolveService svc(small_service_options());
  Problem p = make_laplace_7pt(10);
  const CsrMatrix flipped = flip_pair01(p.a);
  const Vector b = rhs_for(static_cast<std::size_t>(p.a.rows()), 3);

  EXPECT_FALSE(svc.submit(p.a, b).get().cache_hit);
  const SolveResponse r = svc.submit(flipped, b).get();
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(svc.stats().cache.setups_built, 2u);
  Vector res;
  flipped.residual(b, r.x, res);
  EXPECT_LT(norm2(res) / norm2(b), 1e-8);
}

TEST(SolveService, ConcurrentClientsMatchIndependentSolves) {
  SolveService svc(small_service_options());
  Problem p = make_laplace_7pt(8);
  const auto n = static_cast<std::size_t>(p.a.rows());

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::vector<std::vector<std::future<SolveResponse>>> futs(kClients);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          futs[c].push_back(svc.submit(
              p.a, rhs_for(n, static_cast<std::uint64_t>(c * 100 + i))));
        }
      });
    }
  }

  // Reference solves against the very setup the service cached.
  auto setup = svc.cache().get_or_build(p.a);
  ASSERT_TRUE(setup->symmetric());
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const SolveResponse got = futs[c][i].get();
      const Vector b = rhs_for(n, static_cast<std::uint64_t>(c * 100 + i));
      Vector x(n, 0.0);
      const SolveStats ref = pcg_reference(*setup, b, x, 30, 1e-9);
      EXPECT_NEAR(got.stats.final_rel_res(), ref.final_rel_res(), 1e-12);
      for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(got.x[j], x[j], 1e-12);
      EXPECT_LT(got.stats.cycles, stationary_cycles(*setup, b, 30, 1e-9));
    }
  }
  EXPECT_EQ(svc.stats().cache.setups_built, 1u);
}

TEST(SolveService, BatchedSolvesMatchIndependentUnderConcurrentClients) {
  SolveService svc(small_service_options());
  Problem p = make_laplace_7pt(8);
  const auto n = static_cast<std::size_t>(p.a.rows());
  BatchOptions bo;
  bo.t_max = 20;
  bo.tol = 1e-10;

  constexpr int kClients = 3;
  constexpr int kRhs = 5;
  std::vector<std::vector<BatchResult>> got(kClients);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<Vector> rhs;
        for (int i = 0; i < kRhs; ++i) {
          rhs.push_back(rhs_for(n, static_cast<std::uint64_t>(c * 50 + i)));
        }
        got[c] = svc.solve_batch(p.a, rhs, bo);
      });
    }
  }

  auto setup = svc.cache().get_or_build(p.a);
  ASSERT_TRUE(setup->symmetric());
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), static_cast<std::size_t>(kRhs));
    for (int i = 0; i < kRhs; ++i) {
      const Vector b = rhs_for(n, static_cast<std::uint64_t>(c * 50 + i));
      Vector x(n, 0.0);
      const SolveStats ref = pcg_reference(*setup, b, x, bo.t_max, bo.tol);
      EXPECT_NEAR(got[c][i].stats.final_rel_res(), ref.final_rel_res(),
                  1e-12);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(got[c][i].x[j], x[j], 1e-12);
      }
      EXPECT_LT(got[c][i].stats.cycles,
                stationary_cycles(*setup, b, bo.t_max, bo.tol));
    }
  }
  EXPECT_EQ(svc.stats().cache.setups_built, 1u);
}

TEST(SolveService, DeadlineReturnsBestSoFarWithTimedOutFlag) {
  SolveService svc(small_service_options(2));
  Problem p = make_laplace_27pt(12);
  const auto n = static_cast<std::size_t>(p.a.rows());

  RequestOptions ro;
  ro.t_max = 1000000;
  ro.tol = 1e-300;  // unreachable: only the deadline can stop the solve
  ro.timeout_seconds = 0.15;
  auto fut = svc.submit(p.a, rhs_for(n, 5), ro);
  const SolveResponse resp = fut.get();
  EXPECT_TRUE(resp.timed_out);
  EXPECT_FALSE(resp.stats.converged);
  ASSERT_FALSE(resp.stats.rel_res_history.empty());
  // Best-so-far iterate: the residual improved over the initial guess
  // whenever at least one cycle fit in the budget.
  if (resp.stats.cycles > 0) {
    EXPECT_LT(resp.stats.final_rel_res(), resp.stats.rel_res_history.front());
  }
  EXPECT_EQ(svc.stats().timed_out, 1u);
}

TEST(SolveService, DeadlineExpiredInQueueShortCircuits) {
  SolveService svc(small_service_options(1));
  Problem p = make_laplace_7pt(8);
  const auto n = static_cast<std::size_t>(p.a.rows());

  // Occupy the single worker so the request's deadline lapses while queued.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  svc.pool().post([gate] { gate.wait(); });

  RequestOptions ro;
  ro.timeout_seconds = 1e-6;
  auto fut = svc.submit(p.a, rhs_for(n, 6), ro);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  const SolveResponse resp = fut.get();
  EXPECT_TRUE(resp.timed_out);
  EXPECT_EQ(resp.stats.cycles, 0);
  EXPECT_DOUBLE_EQ(resp.stats.final_rel_res(), 1.0);
  // The short-circuit path never touches the cache.
  EXPECT_EQ(svc.stats().cache.misses, 0u);
}

// Non-symmetric input keeps the stationary V(1,1) solve: the service's
// answers are MultiplicativeMg::solve's on the cached setup.
TEST(SolveService, NonSymmetricInputTakesStationaryPath) {
  SolveService svc(small_service_options());
  const CsrMatrix a = upwind_7pt(8, 0.5);
  const auto n = static_cast<std::size_t>(a.rows());

  RequestOptions ro;
  ro.t_max = 60;  // convection slows the V-cycle: ~28 cycles to 1e-9
  std::vector<std::future<SolveResponse>> futs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    futs.push_back(svc.submit(a, rhs_for(n, 300 + i), ro));
  }
  auto setup = svc.cache().get_or_build(a);
  ASSERT_FALSE(setup->symmetric());
  for (std::uint64_t i = 0; i < 4; ++i) {
    const SolveResponse got = futs[i].get();
    Vector x(n, 0.0);
    MultiplicativeMg mg(*setup);
    const SolveStats ref = mg.solve(rhs_for(n, 300 + i), x, ro.t_max, 1e-9);
    EXPECT_TRUE(got.stats.converged);
    EXPECT_EQ(got.stats.cycles, ref.cycles);
    EXPECT_NEAR(got.stats.final_rel_res(), ref.final_rel_res(), 1e-12);
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(got.x[j], x[j], 1e-12);
  }
}

// A symmetric indefinite matrix (the 7pt Laplacian shifted past four of its
// eigenvalues) takes the PCG path, where CG breaks down: the request ends
// unconverged with a finite answer instead of throwing.
TEST(SolveService, SymmetricIndefiniteInputStopsWithoutConverging) {
  SolveService svc(small_service_options());
  Problem p = make_laplace_7pt(8);
  CsrMatrix a = p.a;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto vals = a.values_mutable();
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      if (ci[static_cast<std::size_t>(k)] == i) {
        vals[static_cast<std::size_t>(k)] -= 1.0;
      }
    }
  }
  const auto n = static_cast<std::size_t>(a.rows());

  SolveResponse resp;
  ASSERT_NO_THROW(resp = svc.submit(a, rhs_for(n, 9)).get());
  ASSERT_TRUE(svc.cache().get_or_build(a)->symmetric());
  EXPECT_FALSE(resp.stats.converged);
  EXPECT_FALSE(resp.timed_out);
  EXPECT_TRUE(std::isfinite(resp.stats.final_rel_res()));
  ASSERT_EQ(resp.x.size(), n);
  for (double v : resp.x) ASSERT_TRUE(std::isfinite(v));
}

TEST(SolveService, BoundedAdmissionQueueRejectsOverload) {
  ServiceOptions so = small_service_options(1);
  so.max_queue = 2;
  SolveService svc(so);
  Problem p = make_laplace_7pt(6);
  const auto n = static_cast<std::size_t>(p.a.rows());

  // Block the pool so admitted requests cannot finish.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  svc.pool().post([gate] { gate.wait(); });

  auto f1 = svc.submit(p.a, rhs_for(n, 1));
  auto f2 = svc.submit(p.a, rhs_for(n, 2));
  EXPECT_THROW(svc.submit(p.a, rhs_for(n, 3)), ServiceOverloaded);
  EXPECT_EQ(svc.stats().queue_depth, 2u);

  release.set_value();
  EXPECT_LT(f1.get().stats.final_rel_res(), 1e-8);
  EXPECT_LT(f2.get().stats.final_rel_res(), 1e-8);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.queue_depth, 0u);
}

TEST(SolveService, StatsExportAsJson) {
  SolveService svc(small_service_options());
  Problem p = make_laplace_7pt(6);
  const auto n = static_cast<std::size_t>(p.a.rows());
  svc.submit(p.a, rhs_for(n, 1)).get();

  const std::string json = svc.stats().to_json();
  for (const char* key :
       {"\"submitted\":1", "\"completed\":1", "\"rejected\":0",
        "\"cache\":", "\"setups_built\":1", "\"latency_p50\":",
        "\"latency_p95\":", "\"queue_depth\":0"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

}  // namespace
}  // namespace asyncmg
