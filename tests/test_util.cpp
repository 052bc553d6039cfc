// Tests for the utility layer: RNG, partitioning, statistics, CLI, tables.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "util/backoff.hpp"
#include "util/cli.hpp"
#include "util/partition.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace asyncmg {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(8);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(9, 2), 9);  // hi < lo collapses to lo
}

TEST(Rng, DoublesInHalfOpenUnit) {
  Rng rng(9);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double d = rng.next_double();
    mn = std::min(mn, d);
    mx = std::max(mx, d);
    sum += d;
  }
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(10);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(11);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Partition, StaticChunksCoverAndBalance) {
  for (std::size_t n : {0ul, 1ul, 7ul, 64ul, 100ul}) {
    for (std::size_t parts : {1ul, 3ul, 7ul, 64ul}) {
      const auto chunks = static_chunks(n, parts);
      ASSERT_EQ(chunks.size(), parts);
      std::size_t total = 0, mn = n + 1, mx = 0;
      std::size_t expected_begin = 0;
      for (const Range& r : chunks) {
        EXPECT_EQ(r.begin, expected_begin);
        expected_begin = r.end;
        total += r.size();
        mn = std::min(mn, r.size());
        mx = std::max(mx, r.size());
      }
      EXPECT_EQ(total, n);
      EXPECT_LE(mx - mn, 1u) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(Partition, AssignThreadsEveryGridGetsOne) {
  const std::vector<double> work{100.0, 10.0, 1.0, 0.1};
  const auto counts = assign_threads_to_grids(work, 16);
  ASSERT_EQ(counts.size(), 4u);
  std::size_t total = 0;
  for (std::size_t c : counts) {
    EXPECT_GE(c, 1u);
    total += c;
  }
  EXPECT_EQ(total, 16u);
  // The dominant grid receives the lion's share.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GE(counts[1], counts[2]);
}

TEST(Partition, AssignThreadsExactMinimum) {
  const auto counts = assign_threads_to_grids({5.0, 5.0, 5.0}, 3);
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(Partition, AssignThreadsZeroWorkStillCovered) {
  const auto counts = assign_threads_to_grids({0.0, 0.0}, 5);
  EXPECT_EQ(counts[0] + counts[1], 5u);
  EXPECT_GE(counts[0], 1u);
  EXPECT_GE(counts[1], 1u);
}

TEST(Partition, AssignThreadsRejectsBadInput) {
  EXPECT_THROW(assign_threads_to_grids({1.0, 1.0}, 1), std::invalid_argument);
  EXPECT_THROW(assign_threads_to_grids({-1.0}, 2), std::invalid_argument);
}

TEST(Partition, ThreadRangesAreContiguous) {
  const auto ranges = thread_ranges({3, 1, 2});
  EXPECT_EQ(ranges[0], (Range{0, 3}));
  EXPECT_EQ(ranges[1], (Range{3, 4}));
  EXPECT_EQ(ranges[2], (Range{4, 6}));
}

TEST(Stats, BasicMoments) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

TEST(Stats, PercentileInterpolatesOrderStatistics) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);    // matches median
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);   // between 1 and 2
}

TEST(Stats, PercentileEdgeCasesAreDefined) {
  // A single sample is every percentile of itself.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 95.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
  // Empty samples have no order statistics: NaN, never a fabricated 0.
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
  // Out-of-range (and NaN) p is a caller bug, reported by message.
  EXPECT_THROW(percentile({1.0, 2.0}, -0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0, 2.0}, 100.5), std::invalid_argument);
  EXPECT_THROW(
      percentile({1.0, 2.0}, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  try {
    percentile({1.0}, 123.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("percentile"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("123"), std::string::npos);
  }
}

TEST(Stats, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({5.0}), 0.0);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), std::invalid_argument);
  EXPECT_TRUE(std::isnan(min_of({})));
}

TEST(Stats, RunningMatchesBatch) {
  Rng rng(12);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    xs.push_back(v);
    rs.add(v);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-10);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-8);
  EXPECT_EQ(rs.count(), 500u);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",      "--alpha", "0.5",  "--flag",
                        "--sizes=4,8,16", "pos1",    "--n", "42"};
  Cli cli(8, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_EQ(cli.get_int_list("sizes", {}),
            (std::vector<std::int64_t>{4, 8, 16}));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
}

TEST(Cli, DoubleListAndDefaults) {
  const char* argv[] = {"prog", "--alphas", "0.1,0.3"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_double_list("alphas", {}),
            (std::vector<double>{0.1, 0.3}));
  EXPECT_EQ(cli.get_double_list("betas", {1.0}), (std::vector<double>{1.0}));
  EXPECT_EQ(cli.get_int("absent", -7), -7);
}

TEST(Table, AlignedTextAndCsv) {
  Table t({"method", "time", "cycles"});
  t.add_row({"mult", Table::fmt(0.1234), Table::fmt_int(75)});
  t.add_row({"multadd", Table::fmt(std::nan("")), Table::fmt_int(0)});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("method"), std::string::npos);
  EXPECT_NE(text.find("0.1234"), std::string::npos);
  EXPECT_NE(text.find("+"), std::string::npos);  // divergence marker
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("method,time,cycles"), std::string::npos);
  EXPECT_NE(csv.find("mult,0.1234,75"), std::string::npos);
}

TEST(Table, EmitWritesCsvFile) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  const std::string path = "/tmp/asyncmg_table_test.csv";
  {
    // Redirect stdout noise away is unnecessary; emit also prints the text.
    t.emit(path);
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(Cli, ProgramNameAndEquals) {
  const char* argv[] = {"myprog", "--x=3"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.program(), "myprog");
  EXPECT_EQ(cli.get_int("x", 0), 3);
}

TEST(Backoff, GrowsExponentiallyAndCaps) {
  BackoffOptions o;
  o.initial_ms = 10.0;
  o.multiplier = 2.0;
  o.max_ms = 100.0;
  o.jitter = 0.0;
  Backoff b(o);
  EXPECT_DOUBLE_EQ(b.next_ms(), 10.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 20.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 40.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 80.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 100.0);  // capped
  EXPECT_DOUBLE_EQ(b.next_ms(), 100.0);
  EXPECT_EQ(b.attempts(), 6);
  // Very deep attempt counts must not overflow to inf/NaN.
  for (int i = 0; i < 5000; ++i) b.next_ms();
  EXPECT_DOUBLE_EQ(b.peek_base_ms(), 100.0);
}

TEST(Backoff, ResetRewindsToInitial) {
  BackoffOptions o;
  o.jitter = 0.0;
  Backoff b(o);
  b.next_ms();
  b.next_ms();
  EXPECT_EQ(b.attempts(), 2);
  b.reset();
  EXPECT_EQ(b.attempts(), 0);
  EXPECT_DOUBLE_EQ(b.next_ms(), o.initial_ms);
}

TEST(Backoff, JitterBoundedAndDeterministic) {
  BackoffOptions o;
  o.initial_ms = 100.0;
  o.multiplier = 1.0;  // isolate the jitter factor
  o.max_ms = 100.0;
  o.jitter = 0.25;
  o.seed = 7;
  Backoff a(o), b(o);
  bool saw_non_nominal = false;
  for (int i = 0; i < 200; ++i) {
    const double da = a.next_ms();
    EXPECT_DOUBLE_EQ(da, b.next_ms());  // same seed, same stream
    EXPECT_GE(da, 75.0);
    EXPECT_LE(da, 125.0);
    if (std::abs(da - 100.0) > 1e-9) saw_non_nominal = true;
  }
  EXPECT_TRUE(saw_non_nominal);
}

TEST(Backoff, RejectsBadOptions) {
  auto expect_throws = [](BackoffOptions o) {
    EXPECT_THROW(Backoff{o}, std::invalid_argument);
  };
  BackoffOptions o;
  o.initial_ms = 0.0;
  expect_throws(o);
  o = {};
  o.multiplier = 0.5;
  expect_throws(o);
  o = {};
  o.max_ms = o.initial_ms / 2.0;
  expect_throws(o);
  o = {};
  o.jitter = 1.0;
  expect_throws(o);
  o = {};
  o.jitter = -0.1;
  expect_throws(o);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace asyncmg
