// Tests for the sharded solver subsystem: the domain partitioner's halo
// round-trip identities, local-stencil bitwise equality with the global
// kernels, the multi-shard bitwise oracle (S-shard synchronous == 1-shard),
// free-running convergence, fault injection, the channel transport, and the
// consistent-hash router.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "async/model.hpp"
#include "mesh/problems.hpp"
#include "shard/partition.hpp"
#include "shard/router.hpp"
#include "shard/solver.hpp"
#include "shard/transport.hpp"
#include "sparse/vec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sink.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

struct Fixture {
  explicit Fixture(int m = 8) {
    Problem prob = make_laplace_7pt(m);
    MgOptions mo;
    mo.smoother.type = SmootherType::kWeightedJacobi;
    mo.smoother.omega = 0.9;
    setup = std::make_unique<MgSetup>(std::move(prob.a), mo);
    ao.kind = AdditiveKind::kMultadd;
    Rng rng(31);
    b = random_vector(static_cast<std::size_t>(setup->a(0).rows()), rng);
  }
  std::unique_ptr<MgSetup> setup;
  AdditiveOptions ao;
  Vector b;
};

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(ShardPartition, EveryRowOwnedExactlyOnce) {
  Fixture f;
  const CsrMatrix& a = f.setup->a(0);
  for (std::size_t shards : {1u, 2u, 3u, 4u, 7u}) {
    const ShardPlan plan = make_shard_plan(a, shards);
    ASSERT_EQ(plan.owned.size(), shards);
    std::vector<int> owned_count(static_cast<std::size_t>(plan.n), 0);
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t i = plan.owned[s].begin; i < plan.owned[s].end; ++i) {
        ++owned_count[i];
      }
    }
    for (int c : owned_count) EXPECT_EQ(c, 1);
    for (Index row = 0; row < plan.n; ++row) {
      const std::size_t s = plan.owner_of(row);
      EXPECT_GE(static_cast<std::size_t>(row), plan.owned[s].begin);
      EXPECT_LT(static_cast<std::size_t>(row), plan.owned[s].end);
    }
  }
}

TEST(ShardPartition, HaloIndicesRoundTrip) {
  Fixture f;
  const ShardPlan plan = make_shard_plan(f.setup->a(0), 4);
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    // halo[s] is sorted, deduplicated, and entirely foreign.
    EXPECT_TRUE(std::is_sorted(plan.halo[s].begin(), plan.halo[s].end()));
    EXPECT_EQ(std::adjacent_find(plan.halo[s].begin(), plan.halo[s].end()),
              plan.halo[s].end());
    for (Index g : plan.halo[s]) EXPECT_NE(plan.owner_of(g), s);

    for (std::size_t p = 0; p < plan.num_shards; ++p) {
      if (p == s) continue;
      // send[p][s] == halo[s] restricted to owned[p].
      std::vector<Index> expected;
      for (Index g : plan.halo[s]) {
        if (plan.owner_of(g) == p) expected.push_back(g);
      }
      EXPECT_EQ(plan.send[p][s], expected);
      // ghost_slots[s][p] is aligned with send[p][s]: slot i holds the
      // local position of global index send[p][s][i].
      ASSERT_EQ(plan.ghost_slots[s][p].size(), plan.send[p][s].size());
      for (std::size_t i = 0; i < plan.send[p][s].size(); ++i) {
        const std::size_t slot = plan.ghost_slots[s][p][i];
        ASSERT_GE(slot, plan.owned[s].size());
        EXPECT_EQ(plan.halo[s][slot - plan.owned[s].size()],
                  plan.send[p][s][i]);
      }
    }
  }
}

TEST(ShardPartition, RejectsBadShardCounts) {
  Fixture f;
  EXPECT_THROW(make_shard_plan(f.setup->a(0), 0), std::invalid_argument);
  EXPECT_THROW(
      make_shard_plan(f.setup->a(0),
                      static_cast<std::size_t>(f.setup->a(0).rows()) + 1),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Local stencil bitwise equality
// ---------------------------------------------------------------------------

TEST(ShardStencil, ResidualMatchesGlobalBitwise) {
  Fixture f;
  const CsrMatrix& a = f.setup->a(0);
  const std::size_t n = f.b.size();
  Rng rng(7);
  const Vector x = random_vector(n, rng);

  Vector r_global;
  a.residual(f.b, x, r_global);

  for (std::size_t shards : {2u, 3u, 5u}) {
    const ShardPlan plan = make_shard_plan(a, shards);
    Vector r_sharded(n, 0.0);
    for (std::size_t s = 0; s < shards; ++s) {
      Vector x_local(plan.local_size(s));
      std::copy(x.begin() + static_cast<std::ptrdiff_t>(plan.owned[s].begin),
                x.begin() + static_cast<std::ptrdiff_t>(plan.owned[s].end),
                x_local.begin());
      for (std::size_t pos = 0; pos < plan.halo[s].size(); ++pos) {
        x_local[plan.owned[s].size() + pos] =
            x[static_cast<std::size_t>(plan.halo[s][pos])];
      }
      plan.local_a[s].residual_into(f.b, x_local, r_sharded);
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(r_sharded[i], r_global[i]);
  }
}

// ---------------------------------------------------------------------------
// Bitwise oracle: S-shard synchronous == 1-shard synchronous
// ---------------------------------------------------------------------------

TEST(ShardSolver, SynchronousIsBitwiseShardCountInvariant) {
  Fixture f;
  ShardOptions so;
  so.mode = ShardMode::kSynchronous;
  so.t_max = 10;

  so.num_shards = 1;
  ShardedSolver oracle(*f.setup, f.ao, so);
  Vector x1(f.b.size(), 0.0);
  const ShardResult r1 = oracle.solve(f.b, x1);
  EXPECT_LT(r1.final_rel_res, 1e-2);

  for (std::size_t shards : {2u, 4u, 7u}) {
    so.num_shards = shards;
    ShardedSolver solver(*f.setup, f.ao, so);
    Vector xs(f.b.size(), 0.0);
    const ShardResult rs = solver.solve(f.b, xs);
    for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(xs[i], x1[i]);
    EXPECT_EQ(rs.final_rel_res, r1.final_rel_res);
    for (int c : rs.corrections) EXPECT_EQ(c, so.t_max);
  }
}

TEST(ShardSolver, SyncTransportMatchesScriptedSyncBitwise) {
  // The bulk-synchronous rounds executed over the real transport (threads +
  // channel rings + two-exchange rounds, shard/worker.hpp) replay the
  // scripted full-schedule oracle bitwise: every read is fixed by the round
  // structure, not by message timing. This is the in-process anchor of the
  // multi-process oracle chain (sockets == channels == scripted == 1
  // shard).
  Fixture f;
  ShardOptions so;
  so.mode = ShardMode::kSynchronous;
  so.t_max = 10;
  so.num_shards = 1;
  ShardedSolver oracle(*f.setup, f.ao, so);
  Vector x1(f.b.size(), 0.0);
  const ShardResult r1 = oracle.solve(f.b, x1);

  for (std::size_t shards : {1u, 2u, 4u}) {
    ShardOptions st_opts;
    st_opts.mode = ShardMode::kSyncTransport;
    st_opts.num_shards = shards;
    st_opts.t_max = 10;
    ShardedSolver solver(*f.setup, f.ao, st_opts);
    Vector x(f.b.size(), 0.0);
    const ShardResult r = solver.solve(f.b, x);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x1[i]);
    EXPECT_EQ(r.final_rel_res, r1.final_rel_res);
    for (int c : r.corrections) EXPECT_EQ(c, st_opts.t_max);
  }
}

TEST(ShardSolver, SyncTransportSurvivesKilledShard) {
  // Criterion-2 for the BSP rounds: a killed shard's frames stop coming;
  // the waits exempt it after its death is published, nobody deadlocks.
  Fixture f;
  FaultPlan faults;
  faults.kills.push_back({/*grid=*/1, /*after_corrections=*/3});
  ShardOptions so;
  so.mode = ShardMode::kSyncTransport;
  so.num_shards = 3;
  so.t_max = 12;
  so.faults = &faults;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  const ShardResult r = solver.solve(f.b, x);
  ASSERT_EQ(r.killed_shards.size(), 1u);
  EXPECT_EQ(r.killed_shards[0], 1u);
  EXPECT_EQ(r.corrections[1], 3);
  EXPECT_EQ(r.corrections[0], 12);
  EXPECT_EQ(r.corrections[2], 12);
  EXPECT_LT(r.final_rel_res, 1.0);
}

TEST(ShardSolver, TransportCountersSurfaceInMetricsRegistry) {
  // Satellite of the net PR: channel sends/drops are mirrored onto the
  // telemetry metrics registry so they surface in every stats JSON that
  // merges the registry.
  Fixture f;
  TelemetrySink sink;
  ShardOptions so;
  so.mode = ShardMode::kAsynchronous;
  so.num_shards = 3;
  so.t_max = 10;
  so.telemetry = &sink;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  const ShardResult r = solver.solve(f.b, x);
  EXPECT_GT(r.packets_sent, 0u);
  EXPECT_EQ(
      sink.metrics().counter("shard.transport.packets_sent").value(),
      r.packets_sent);
  EXPECT_EQ(
      sink.metrics().counter("shard.transport.packets_dropped").value(),
      r.packets_dropped);
  const std::string json = sink.metrics().to_json();
  EXPECT_NE(json.find("shard.transport.packets_sent"), std::string::npos);
  const std::string rj = r.to_json();
  EXPECT_NE(rj.find("\"packets_sent\":"), std::string::npos);
  EXPECT_NE(rj.find("\"killed_shards\":[]"), std::string::npos);
}

TEST(ShardSolver, SingleShardSyncMatchesSemiAsyncReplayBitwise) {
  // The 1-shard synchronous run IS the sequential Section-III model on the
  // all-grids-fresh schedule.
  Fixture f;
  AdditiveCorrector corr(*f.setup, f.ao);
  Vector x_model(f.b.size(), 0.0);
  const AsyncModelResult mr = replay_semiasync_schedule(
      corr, f.b, x_model, full_schedule(corr.num_grids(), 10));

  ShardOptions so;
  so.num_shards = 1;
  so.mode = ShardMode::kSynchronous;
  so.t_max = 10;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  const ShardResult r = solver.solve(f.b, x);

  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_model[i]);
  EXPECT_EQ(r.final_rel_res, mr.final_rel_res);
}

// ---------------------------------------------------------------------------
// Scripted replay
// ---------------------------------------------------------------------------

TEST(ShardSolver, ScriptedRunsAreBitwiseReproducible) {
  Fixture f;
  ShardOptions so;
  so.num_shards = 3;
  so.mode = ShardMode::kScripted;
  so.t_max = 12;
  so.script_alpha = 0.6;
  so.script_max_delay = 3;
  so.seed = 42;

  Vector xa(f.b.size(), 0.0), xb(f.b.size(), 0.0);
  ShardedSolver s1(*f.setup, f.ao, so);
  ShardedSolver s2(*f.setup, f.ao, so);
  const ShardResult ra = s1.solve(f.b, xa);
  const ShardResult rb = s2.solve(f.b, xb);
  for (std::size_t i = 0; i < xa.size(); ++i) EXPECT_EQ(xa[i], xb[i]);
  EXPECT_EQ(ra.final_rel_res, rb.final_rel_res);
  EXPECT_EQ(ra.instants, rb.instants);
}

TEST(ShardSolver, ScriptedStaleReadsStillConverge) {
  Fixture f;
  ShardOptions so;
  so.num_shards = 4;
  so.mode = ShardMode::kScripted;
  so.t_max = 40;
  so.script_alpha = 0.5;
  so.script_max_delay = 4;
  so.record_history = true;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  const ShardResult r = solver.solve(f.b, x);
  EXPECT_LT(r.final_rel_res, 1e-4);
  EXPECT_FALSE(r.rel_res_history.empty());
  EXPECT_EQ(r.rel_res_history.back(), r.final_rel_res);
}

TEST(ShardSolver, ScriptedRejectsInvalidSchedule) {
  Fixture f;
  Schedule bad;
  bad.instants.push_back({{5, 0}});  // grid id out of range for 2 shards
  ShardOptions so;
  so.num_shards = 2;
  so.mode = ShardMode::kScripted;
  so.schedule = &bad;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  EXPECT_THROW(solver.solve(f.b, x), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Free-running asynchronous execution
// ---------------------------------------------------------------------------

TEST(ShardSolver, AsyncConvergesToSingleShardTolerance) {
  // The paper's trade: stale reads degrade the per-correction rate, so the
  // asynchronous discipline needs more corrections to reach a given
  // tolerance -- but it does reach it (no stagnation), with no barriers.
  Fixture f;
  ShardOptions so;
  so.mode = ShardMode::kSynchronous;
  so.num_shards = 1;
  so.t_max = 40;
  ShardedSolver oracle(*f.setup, f.ao, so);
  Vector x1(f.b.size(), 0.0);
  const double tol = oracle.solve(f.b, x1).final_rel_res * 50.0;

  for (std::size_t shards : {2u, 4u}) {
    ShardOptions ao_opts;
    ao_opts.mode = ShardMode::kAsynchronous;
    ao_opts.num_shards = shards;
    ao_opts.t_max = 120;  // 3x the sync correction budget
    ao_opts.max_lag = 1;
    ShardedSolver solver(*f.setup, f.ao, ao_opts);
    Vector x(f.b.size(), 0.0);
    const ShardResult r = solver.solve(f.b, x);
    EXPECT_LT(r.final_rel_res, tol) << shards << " shards";
    for (int c : r.corrections) EXPECT_EQ(c, ao_opts.t_max);
    EXPECT_GT(r.packets_sent, 0u);
  }
}

TEST(ShardSolver, AsyncMatchesSequentialModelErrorNorm) {
  // The free-running executor is an instance of the Section-III semi-async
  // model with read delay ~ max_lag; after the same correction budget its
  // error should be within a couple of orders of the sequential model run
  // with a comparable delay bound.
  Fixture f;
  AdditiveCorrector corr(*f.setup, f.ao);
  AsyncModelOptions mo;
  mo.kind = AsyncModelKind::kSemiAsync;
  mo.alpha = 0.7;
  mo.max_delay = 3;
  mo.updates_per_grid = 30;
  Vector x_model(f.b.size(), 0.0);
  const AsyncModelResult mr = run_async_model(corr, f.b, x_model, mo);

  ShardOptions so;
  so.mode = ShardMode::kAsynchronous;
  so.num_shards = 4;
  so.t_max = 30;
  so.max_lag = 3;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  const ShardResult r = solver.solve(f.b, x);
  EXPECT_LT(r.final_rel_res, std::max(mr.final_rel_res * 100.0, 1e-6));
}

TEST(ShardSolver, AsyncSurvivesDroppedExchanges) {
  Fixture f;
  FaultPlan faults;
  faults.dropped_reads.push_back({/*grid=*/0, /*from_correction=*/2,
                                  /*corrections=*/10});
  ShardOptions so;
  so.mode = ShardMode::kAsynchronous;
  so.num_shards = 3;
  so.t_max = 60;
  so.faults = &faults;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  const ShardResult r = solver.solve(f.b, x);
  EXPECT_EQ(r.reads_dropped, 10);
  EXPECT_LT(r.final_rel_res, 1e-3);  // stale views slow, not break, progress
}

TEST(ShardSolver, AsyncRecoversFromKilledShard) {
  // Criterion-2 recovery: a killed shard's block stops moving; the others
  // neither deadlock nor stop. The global residual stays bounded by the
  // dead shard's frozen rows.
  Fixture f;
  FaultPlan faults;
  faults.kills.push_back({/*grid=*/1, /*after_corrections=*/3});
  ShardOptions so;
  so.mode = ShardMode::kAsynchronous;
  so.num_shards = 3;
  so.t_max = 25;
  so.faults = &faults;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  const ShardResult r = solver.solve(f.b, x);
  ASSERT_EQ(r.killed_shards.size(), 1u);
  EXPECT_EQ(r.killed_shards[0], 1u);
  EXPECT_EQ(r.corrections[1], 3);
  EXPECT_EQ(r.corrections[0], 25);
  EXPECT_EQ(r.corrections[2], 25);
  EXPECT_LT(r.final_rel_res, 1.0);  // progress despite the dead block
}

TEST(ShardSolver, ScriptedHonorsKills) {
  Fixture f;
  FaultPlan faults;
  faults.kills.push_back({/*grid=*/0, /*after_corrections=*/2});
  ShardOptions so;
  so.mode = ShardMode::kSynchronous;
  so.num_shards = 2;
  so.t_max = 8;
  so.faults = &faults;
  ShardedSolver solver(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  const ShardResult r = solver.solve(f.b, x);
  EXPECT_EQ(r.corrections[0], 2);
  EXPECT_EQ(r.corrections[1], 8);
  ASSERT_EQ(r.killed_shards.size(), 1u);
  EXPECT_EQ(r.killed_shards[0], 0u);
}

// ---------------------------------------------------------------------------
// Options validation
// ---------------------------------------------------------------------------

TEST(ShardOptionsTest, RejectsBadValues) {
  Fixture f;
  auto expect_throws = [&](ShardOptions so) {
    EXPECT_THROW(ShardedSolver(*f.setup, f.ao, so), std::invalid_argument);
  };
  ShardOptions so;
  so.num_shards = 0;
  expect_throws(so);
  so = {};
  so.t_max = 0;
  expect_throws(so);
  so = {};
  so.channel_capacity = 0;
  expect_throws(so);
  so = {};
  so.latency_us = -1.0;
  expect_throws(so);
  so = {};
  so.script_alpha = 0.0;
  expect_throws(so);
  so = {};
  so.script_alpha = 1.5;
  expect_throws(so);
  so = {};
  so.script_max_delay = -1;
  expect_throws(so);
}

TEST(ChannelTransportTest, RejectsBadOptions) {
  ChannelTransportOptions o;
  o.num_shards = 0;
  EXPECT_THROW(ChannelTransport{o}, std::invalid_argument);
  o = {};
  o.capacity = 0;
  EXPECT_THROW(ChannelTransport{o}, std::invalid_argument);
  o = {};
  o.latency_us = -2.0;
  EXPECT_THROW(ChannelTransport{o}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Channel transport semantics
// ---------------------------------------------------------------------------

TEST(ChannelTransportTest, DeliversNewestAndCountsDrops) {
  ChannelTransportOptions o;
  o.num_shards = 2;
  o.capacity = 4;
  ChannelTransport tr(o);

  HaloPacket out;
  EXPECT_FALSE(tr.recv_latest(1, 0, HaloTag::kBoundaryX, out));

  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    HaloPacket p;
    p.seq = seq;
    p.data = {static_cast<double>(seq)};
    EXPECT_TRUE(tr.send(0, 1, HaloTag::kBoundaryX, std::move(p)));
  }
  ASSERT_TRUE(tr.recv_latest(1, 0, HaloTag::kBoundaryX, out));
  EXPECT_EQ(out.seq, 2u);  // newest wins; older packets are drained
  EXPECT_FALSE(tr.recv_latest(1, 0, HaloTag::kBoundaryX, out));

  // Fill the ring; the overflowing packet is dropped and counted.
  for (std::uint64_t seq = 0; seq < o.capacity; ++seq) {
    EXPECT_TRUE(tr.send(0, 1, HaloTag::kResidualBlock, HaloPacket{seq, {}}));
  }
  EXPECT_FALSE(tr.send(0, 1, HaloTag::kResidualBlock, HaloPacket{99, {}}));
  EXPECT_EQ(tr.packets_dropped(), 1u);
  EXPECT_EQ(tr.packets_sent(), 3u + o.capacity);

  // Tags and directions are independent channels.
  EXPECT_FALSE(tr.recv_latest(0, 1, HaloTag::kResidualBlock, out));
  ASSERT_TRUE(tr.recv_latest(1, 0, HaloTag::kResidualBlock, out));
  EXPECT_EQ(out.seq, o.capacity - 1);
}

// ---------------------------------------------------------------------------
// Consistent-hash router
// ---------------------------------------------------------------------------

TEST(HashRing, DeterministicBalancedAndStable) {
  const auto ring = build_hash_ring(4, 64, 1);
  EXPECT_EQ(ring, build_hash_ring(4, 64, 1));
  EXPECT_EQ(ring.size(), 4u * 64u);
  EXPECT_TRUE(std::is_sorted(
      ring.begin(), ring.end(),
      [](const RingNode& l, const RingNode& r) { return l.hash < r.hash; }));

  // Every backend serves a nontrivial share of a uniform key population.
  std::vector<int> hits(4, 0);
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) ++hits[ring_lookup(ring, rng.next_u64())];
  for (int h : hits) EXPECT_GT(h, 4000 / 16);
}

TEST(HashRing, AddingABackendRemapsOnlyAFraction) {
  const auto before = build_hash_ring(4, 64, 1);
  const auto after = build_hash_ring(5, 64, 1);
  Rng rng(6);
  int moved = 0;
  const int keys = 5000;
  for (int i = 0; i < keys; ++i) {
    const std::uint64_t k = rng.next_u64();
    if (ring_lookup(before, k) != ring_lookup(after, k)) ++moved;
  }
  // Ideal is 1/5 of the keys; allow generous slack for vnode variance.
  EXPECT_LT(moved, keys / 2);
  EXPECT_GT(moved, 0);
}

TEST(ShardRouterTest, RejectsBadOptions) {
  ShardRouterOptions o;
  o.num_backends = 0;
  EXPECT_THROW(ShardRouter{o}, std::invalid_argument);
  o = {};
  o.vnodes_per_backend = 0;
  EXPECT_THROW(ShardRouter{o}, std::invalid_argument);
  o = {};
  o.service.num_threads = 0;
  EXPECT_THROW(ShardRouter{o}, std::invalid_argument);
}

TEST(ShardRouterTest, RoutesWithCacheAffinityAndMergesStats) {
  ShardRouterOptions o;
  o.num_backends = 2;
  o.service.num_threads = 2;
  o.service.cache.mg.smoother.type = SmootherType::kWeightedJacobi;
  o.service.cache.mg.smoother.omega = 0.9;
  o.service.default_t_max = 30;
  ShardRouter router(o);

  Problem p1 = make_laplace_7pt(6);
  Problem p2 = make_laplace_7pt(7);
  Rng rng(11);
  const Vector b1 =
      random_vector(static_cast<std::size_t>(p1.a.rows()), rng);
  const Vector b2 =
      random_vector(static_cast<std::size_t>(p2.a.rows()), rng);

  // The same matrix always routes to the same backend.
  const std::size_t home1 = router.backend_of(p1.a);
  EXPECT_EQ(home1, router.backend_of(p1.a));

  auto f1 = router.submit(p1.a, b1);
  auto f1again = router.submit(p1.a, b1);
  auto f2 = router.submit(p2.a, b2);
  const SolveResponse r1 = f1.get();
  const SolveResponse r1b = f1again.get();
  const SolveResponse r2 = f2.get();
  EXPECT_LT(r1.stats.final_rel_res(), 1e-6);
  EXPECT_LT(r2.stats.final_rel_res(), 1e-6);
  // Affinity means the repeat request hit the backend's warm cache.
  EXPECT_TRUE(r1.cache_hit || r1b.cache_hit);

  const std::string json = router.stats_json();
  EXPECT_NE(json.find("\"routed\":3"), std::string::npos);
  EXPECT_NE(json.find("\"backends\":2"), std::string::npos);
  EXPECT_NE(json.find("\"routed_per_backend\":["), std::string::npos);
  EXPECT_NE(json.find("\"backend_stats\":["), std::string::npos);
  EXPECT_NE(json.find("\"submitted\":3"), std::string::npos);
}

TEST(ShardRouterTest, FailoverWalksRingOrderNotIndexOrder) {
  ShardRouterOptions o;
  o.num_backends = 4;
  o.vnodes_per_backend = 8;
  o.service.num_threads = 1;
  o.service.max_queue = 1;  // one in-flight request fills a backend
  o.service.cache.mg.smoother.type = SmootherType::kWeightedJacobi;
  o.service.cache.mg.smoother.omega = 0.9;
  o.service.default_t_max = 30;
  ShardRouter router(o);

  // A request whose next distinct backend on the ring is not its home's
  // index successor, so the two failover orders disagree.
  std::vector<std::size_t> order;
  CsrMatrix a;
  for (Index n = 4; n < 40 && a.rows() == 0; ++n) {
    Problem p = make_laplace_7pt(n);
    order = select_backends(router.ring(), ring_key(matrix_fingerprint(p.a)),
                            o.num_backends);
    if (order[1] != (order[0] + 1) % o.num_backends) a = std::move(p.a);
  }
  ASSERT_GT(a.rows(), 0) << "no key with ring order != index order";
  const std::size_t home = order[0];
  EXPECT_EQ(home, router.backend_of(a));

  // Fill the home backend's only admission slot with a solve that cannot
  // converge and runs until its deadline, so the routed request is shed.
  Problem big = make_laplace_7pt(12);
  Rng rng(13);
  RequestOptions slow;
  slow.t_max = 1 << 30;
  slow.tol = 1e-300;
  slow.timeout_seconds = 1.0;
  auto blocker = router.backend(home).submit(
      big.a, random_vector(static_cast<std::size_t>(big.a.rows()), rng),
      slow);

  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), rng);
  const SolveResponse r = router.submit(a, b).get();
  EXPECT_LT(r.stats.final_rel_res(), 1e-6);
  EXPECT_EQ(router.backend(home).stats().rejected, 1u);
  EXPECT_EQ(router.backend(order[1]).stats().submitted, 1u)
      << "failover must go to the next distinct backend on the ring";
  EXPECT_EQ(router.backend((home + 1) % o.num_backends).stats().submitted, 0u);
  EXPECT_NE(router.stats_json().find("\"failovers\":1"), std::string::npos);
  EXPECT_TRUE(blocker.get().timed_out);
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

TEST(ShardTelemetry, ScriptedTraceIsDeterministicWithShardTracks) {
  Fixture f;
  auto run_trace = [&]() {
    TelemetryOptions topts;
    topts.logical_time = true;
    TelemetrySink sink(topts);
    ShardOptions so;
    so.mode = ShardMode::kSynchronous;
    so.num_shards = 2;
    so.t_max = 4;
    so.telemetry = &sink;
    ShardedSolver solver(*f.setup, f.ao, so);
    Vector x(f.b.size(), 0.0);
    solver.solve(f.b, x);
    ChromeTraceOptions copts;
    copts.logical_time = true;
    return chrome_trace_json(sink.drain(), copts);
  };
  const std::string trace = run_trace();
  EXPECT_EQ(trace, run_trace());
  EXPECT_NE(trace.find("\"shard 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"shard 1\""), std::string::npos);
  EXPECT_NE(trace.find("shard-step"), std::string::npos);
}

}  // namespace
}  // namespace asyncmg
