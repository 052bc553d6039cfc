// Tests for the shared-memory asynchronous runtime (Section IV).

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "async/runtime.hpp"
#include "mesh/problems.hpp"
#include "multigrid/mult.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

struct Fixture {
  explicit Fixture(AdditiveKind kind,
                   SmootherType st = SmootherType::kWeightedJacobi,
                   Index n = 10) {
    Problem prob = make_laplace_7pt(n);
    MgOptions mo;
    mo.smoother.type = st;
    mo.smoother.omega = 0.9;
    setup = std::make_unique<MgSetup>(std::move(prob.a), mo);
    AdditiveOptions ao;
    ao.kind = kind;
    corr = std::make_unique<AdditiveCorrector>(*setup, ao);
    Rng rng(13);
    b = random_vector(static_cast<std::size_t>(setup->a(0).rows()), rng);
  }
  std::unique_ptr<MgSetup> setup;
  std::unique_ptr<AdditiveCorrector> corr;
  Vector b;
};

TEST(Runtime, SyncModeMatchesSequentialAdditive) {
  Fixture f(AdditiveKind::kMultadd);
  Vector x_seq(f.b.size(), 0.0);
  AdditiveMg mg(*f.setup, f.corr->options());
  const double seq = mg.solve(f.b, x_seq, 15).final_rel_res();

  RuntimeOptions ro;
  ro.mode = ExecMode::kSynchronous;
  ro.t_max = 15;
  ro.num_threads = 8;
  Vector x_par(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x_par, ro);
  EXPECT_NEAR(rr.final_rel_res / seq, 1.0, 1e-6);
  for (int c : rr.corrections) EXPECT_EQ(c, 15);
}

TEST(Runtime, MultThreadedMatchesSequentialMult) {
  Fixture f(AdditiveKind::kMultadd);
  Vector x_seq(f.b.size(), 0.0);
  MultiplicativeMg mg(*f.setup);
  const double seq = mg.solve(f.b, x_seq, 12).final_rel_res();

  Vector x_par(f.b.size(), 0.0);
  const RuntimeResult rr = run_mult_threaded(*f.setup, f.b, x_par, 12, 6);
  EXPECT_NEAR(rr.final_rel_res / seq, 1.0, 1e-9);
}

struct AsyncCase {
  ResComp rescomp;
  WritePolicy write;
  bool residual_based;
};

class RuntimeAsyncConfig : public ::testing::TestWithParam<AsyncCase> {};

TEST_P(RuntimeAsyncConfig, MultaddConverges) {
  const AsyncCase& cfg = GetParam();
  Fixture f(AdditiveKind::kMultadd);
  RuntimeOptions ro;
  ro.mode = ExecMode::kAsynchronous;
  ro.rescomp = cfg.rescomp;
  ro.write = cfg.write;
  ro.residual_based = cfg.residual_based;
  ro.criterion = StopCriterion::kIndependent;
  ro.t_max = 30;
  ro.num_threads = 8;
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);
  for (int c : rr.corrections) EXPECT_GE(c, 30);
  if (cfg.rescomp == ResComp::kLocal) {
    // Convergence thresholds are loose: the exact reduction depends on the
    // OS schedule (this is an asynchronous method).
    EXPECT_LT(rr.final_rel_res, 0.05) << runtime_config_name(ro);
  } else {
    // global-res may converge slowly or diverge when residual chunks go
    // stale (the paper itself reports divergent global-res cells in
    // Table I); on an oversubscribed single core staleness is extreme, so
    // only require a sane, completed run.
    EXPECT_TRUE(std::isfinite(rr.final_rel_res)) << runtime_config_name(ro);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, RuntimeAsyncConfig,
    ::testing::Values(
        AsyncCase{ResComp::kLocal, WritePolicy::kLockWrite, false},
        AsyncCase{ResComp::kLocal, WritePolicy::kAtomicWrite, false},
        AsyncCase{ResComp::kGlobal, WritePolicy::kLockWrite, false},
        AsyncCase{ResComp::kGlobal, WritePolicy::kAtomicWrite, false},
        AsyncCase{ResComp::kLocal, WritePolicy::kAtomicWrite, true}),
    [](const ::testing::TestParamInfo<AsyncCase>& info) {
      const AsyncCase& c = info.param;
      std::string name = c.rescomp == ResComp::kLocal ? "local" : "global";
      name += c.write == WritePolicy::kLockWrite ? "Lock" : "Atomic";
      if (c.residual_based) name += "Rbased";
      return name;
    });

TEST(Runtime, AfacxAsyncConverges) {
  Fixture f(AdditiveKind::kAfacx);
  RuntimeOptions ro;
  ro.t_max = 40;
  ro.num_threads = 8;
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);
  EXPECT_LT(rr.final_rel_res, 0.05);
}

TEST(Runtime, AsyncGsSmootherConverges) {
  Fixture f(AdditiveKind::kMultadd, SmootherType::kAsyncGS);
  RuntimeOptions ro;
  ro.t_max = 30;
  ro.num_threads = 8;
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);
  EXPECT_LT(rr.final_rel_res, 0.05);
}

TEST(Runtime, MasterCriterionRunsAllGridsToAtLeastTmax) {
  Fixture f(AdditiveKind::kMultadd);
  RuntimeOptions ro;
  ro.criterion = StopCriterion::kMaster;
  ro.t_max = 10;
  ro.num_threads = 8;
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);
  for (int c : rr.corrections) EXPECT_GE(c, 10);
  EXPECT_GE(rr.mean_corrections(), 10.0);
}

TEST(Runtime, FewerThreadsThanGridsStillWorks) {
  Fixture f(AdditiveKind::kMultadd);
  ASSERT_GE(f.setup->num_levels(), 3u);
  RuntimeOptions ro;
  ro.t_max = 20;
  ro.num_threads = 2;  // fewer than grids: teams own several grids
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);
  EXPECT_LT(rr.final_rel_res, 1e-2);
  for (int c : rr.corrections) EXPECT_GE(c, 20);
}

TEST(Runtime, SingleThreadWorks) {
  Fixture f(AdditiveKind::kMultadd);
  RuntimeOptions ro;
  ro.t_max = 20;
  ro.num_threads = 1;
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);
  EXPECT_LT(rr.final_rel_res, 1e-2);
}

TEST(Runtime, RejectsZeroThreads) {
  Fixture f(AdditiveKind::kMultadd, SmootherType::kWeightedJacobi, 6);
  RuntimeOptions ro;
  ro.num_threads = 0;
  Vector x(f.b.size(), 0.0);
  EXPECT_THROW(run_shared_memory(*f.corr, f.b, x, ro), std::invalid_argument);
  EXPECT_THROW(run_mult_threaded(*f.setup, f.b, x, 5, 0),
               std::invalid_argument);
}

TEST(Runtime, ConfigNamesAreDescriptive) {
  RuntimeOptions ro;
  ro.mode = ExecMode::kAsynchronous;
  ro.write = WritePolicy::kLockWrite;
  ro.rescomp = ResComp::kLocal;
  EXPECT_EQ(runtime_config_name(ro), "async lock-write local-res");
  ro.residual_based = true;
  ro.rescomp = ResComp::kGlobal;
  ro.write = WritePolicy::kAtomicWrite;
  EXPECT_EQ(runtime_config_name(ro), "async atomic-write global-res r-based");
  ro.mode = ExecMode::kSynchronous;
  EXPECT_EQ(runtime_config_name(ro), "sync atomic-write");
}

TEST(Runtime, MultThreadedIndependentOfThreadCountForJacobi) {
  // w-Jacobi phases are order-independent, so the threaded Mult result must
  // be identical (to rounding) for any thread count.
  Fixture f(AdditiveKind::kMultadd);
  Vector x1(f.b.size(), 0.0), x2(f.b.size(), 0.0);
  const RuntimeResult r1 = run_mult_threaded(*f.setup, f.b, x1, 8, 1);
  const RuntimeResult r2 = run_mult_threaded(*f.setup, f.b, x2, 8, 7);
  EXPECT_NEAR(r1.final_rel_res / r2.final_rel_res, 1.0, 1e-9);
}

TEST(Runtime, TraceRecordsEveryCommit) {
  Fixture f(AdditiveKind::kMultadd);
  RuntimeOptions ro;
  ro.t_max = 12;
  ro.num_threads = 8;
  ro.record_trace = true;
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);
  int total = 0;
  for (int c : rr.corrections) total += c;
  ASSERT_EQ(static_cast<int>(rr.trace.size()), total);
  // Per-grid commit times are recorded in nondecreasing order.
  std::map<std::size_t, double> last;
  for (const TraceEvent& ev : rr.trace) {
    EXPECT_GE(ev.seconds, 0.0);
    auto it = last.find(ev.grid);
    if (it != last.end()) {
      EXPECT_GE(ev.seconds, it->second);
    }
    last[ev.grid] = ev.seconds;
  }
  EXPECT_EQ(last.size(), rr.corrections.size());
}

TEST(Runtime, TraceOffByDefault) {
  Fixture f(AdditiveKind::kMultadd);
  RuntimeOptions ro;
  ro.t_max = 5;
  ro.num_threads = 4;
  Vector x(f.b.size(), 0.0);
  const RuntimeResult rr = run_shared_memory(*f.corr, f.b, x, ro);
  EXPECT_TRUE(rr.trace.empty());
}

}  // namespace
}  // namespace asyncmg
