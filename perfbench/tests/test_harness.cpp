// Tests of the benchmark's own helpers: percentiles, span self time, and
// failure accounting. The smoke runs of every workload are separate ctest
// entries (see ../CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "harness.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, P90NeedsTenSamplesBeyond) {
  // p90 of n samples sits at rank 0.9 * (n - 1); ten samples must rank
  // strictly above it before the percentile counts as resolved.
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_TRUE(percentile_resolved(100, 90.0));
  EXPECT_EQ(samples_beyond(92, 90.0), 10u);
  EXPECT_EQ(samples_beyond(91, 90.0), 9u);
  EXPECT_FALSE(percentile_resolved(91, 90.0));
  EXPECT_FALSE(percentile_resolved(20, 90.0));
  EXPECT_TRUE(percentile_resolved(20, 50.0));
  EXPECT_EQ(samples_beyond(0, 90.0), 0u);
  // The samples counted beyond are exactly those above the reported value.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const double p90 = asyncmg::percentile(v, 90.0);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count_if(v.begin(), v.end(),
                              [&](double x) { return x > p90; })),
            samples_beyond(v.size(), 90.0));
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, double a, double b) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = std::to_string(id);
  s.start = a;
  s.end = b;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Parent [0, 10]; children [1, 4] and [3, 6] overlap (union [1, 6] = 5),
  // child [8, 12] is clipped to [8, 10]; grandchild [2, 3] belongs to span 2
  // only.
  const std::vector<SpanRecord> s = {span(1, 0, 0, 10), span(2, 1, 1, 4),
                                     span(3, 1, 3, 6), span(4, 1, 8, 12),
                                     span(5, 2, 2, 3)};
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, TracerNestsSpansPerThread) {
  Tracer tr(true);
  {
    const Span outer(tr, "outer", 7);
    const Span inner(tr, "inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& inner = spans[0].name == "inner" ? spans[0] : spans[1];
  const SpanRecord& outer = spans[0].name == "outer" ? spans[0] : spans[1];
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, 7u);  // inherited from the parent
  const auto totals = span_totals(spans);
  EXPECT_LT(totals.at("outer").self_s, totals.at("inner").total_s);
  EXPECT_GE(totals.at("inner").self_s, 0.002);
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
  Tracer tr(false);
  {
    const Span s(tr, "x");
  }
  EXPECT_EQ(tr.record("y", 0.0, 1.0), 0u);
  EXPECT_TRUE(tr.spans().empty());
}

TEST(FailRatio, CountsEveryFailureAgainstAttempts) {
  FailTally t;
  for (int i = 0; i < 8; ++i) t.attempt();
  t.fail(Failure::kMissedTol);
  t.fail(Failure::kBitwise);
  EXPECT_EQ(t.attempted(), 8u);
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_DOUBLE_EQ(t.ratio(), 0.25);
  FailTally u;
  u.attempt();
  u.attempt();
  u.fail(Failure::kMissedTol);
  t.merge(u);
  EXPECT_EQ(t.attempted(), 10u);
  EXPECT_DOUBLE_EQ(t.ratio(), 0.3);
  EXPECT_EQ(t.to_json(), "{\"bitwise_mismatch\":1,\"missed_tol\":2}");
  EXPECT_DOUBLE_EQ(FailTally{}.ratio(), 0.0);
}

TEST(FailRatio, ForcedMissInAWorkloadIsCounted) {
  Config cfg;
  cfg.workload = "async_multadd";
  cfg.smoke = true;
  cfg.seconds = 0.2;
  cfg.out_dir = ".";
  cfg.force_misses = 1;
  const Result r = run_workload(cfg);
  ASSERT_GE(r.fails.attempted(), 2u);
  EXPECT_EQ(r.fails.failed(), 1u);
  EXPECT_EQ(r.fails.to_json(), "{\"missed_tol\":1}");
  EXPECT_GT(r.fails.ratio(), 0.0);
}

TEST(Json, NumbersKeepEveryDigit) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(2.0), "2");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
  Metrics m;
  m["a"] = {1.5, "s"};
  EXPECT_EQ(metrics_json(m), "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}");
}

}  // namespace
}  // namespace perfbench
