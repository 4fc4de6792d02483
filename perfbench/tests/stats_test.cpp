// Self-tests for the benchmark's derived-metric arithmetic. Build and run
// with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

// Reference values from Python: statistics.quantiles(v, n=4).
TEST(QuartilesTest, MatchesPythonExclusiveMethod) {
  // quantiles([1..10]) == [2.75, 5.5, 8.25]
  std::vector<double> ten(10);
  std::iota(ten.begin(), ten.end(), 1.0);
  Quartiles q = QuartilesOf(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(RelativeSpread(q), (8.25 - 2.75) / 5.5);

  // quantiles([7, 1, 4]) == [1.0, 4.0, 7.0] (clamped at the ends)
  q = QuartilesOf({7.0, 1.0, 4.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.median, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.0);

  // quantiles([1, 2]) == [0.75, 1.5, 2.25]
  q = QuartilesOf({2.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
}

TEST(TailPercentileTest, NeedsTenSamplesBeyond) {
  std::vector<double> v(19);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_FALSE(HighestTailPercentile(v).has_value());  // median leaves 9

  v.push_back(20.0);  // 20 samples: p50 leaves exactly 10, p90 only 2
  auto tail = HighestTailPercentile(v);
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 50.0);
  EXPECT_DOUBLE_EQ(tail->value, 10.0);
  EXPECT_EQ(tail->beyond, 10U);

  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  tail = HighestTailPercentile(hundred);  // p90 leaves 10, p95 only 5
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 90.0);
  EXPECT_DOUBLE_EQ(tail->value, 90.0);
  EXPECT_EQ(tail->beyond, 10U);

  std::vector<double> many(1000);
  std::iota(many.begin(), many.end(), 1.0);
  tail = HighestTailPercentile(many);  // p99 leaves 10
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail->value, 990.0);
}

TEST(WorldSplitTest, FromHandBuiltResult) {
  athena::world::WorldResult r;
  r.shards = 4;
  r.wall_seconds = 0.5;           // capacity 4 * 0.5 = 2.0 shard-seconds
  r.busy_seconds = 1.2;
  r.critical_path_seconds = 0.4;  // slowest shard per window, summed
  const WorldSplit split = SplitWorld(r);
  EXPECT_DOUBLE_EQ(split.loop_s, 0.5);
  EXPECT_NEAR(split.barrier_wait_s, 0.8, 1e-12);
  EXPECT_NEAR(split.imbalance, 4 * 0.4 / 1.2, 1e-12);
  EXPECT_NEAR(split.parallel_eff, 0.6, 1e-12);

  athena::world::WorldResult idle;  // no shard time at all: no NaNs
  const WorldSplit none = SplitWorld(idle);
  EXPECT_EQ(none.imbalance, 0.0);
  EXPECT_EQ(none.parallel_eff, 0.0);
}

TEST(FailFracTest, FromHandBuiltRingStats) {
  athena::obs::pipeline::RingStats stats;
  EXPECT_EQ(Offered(stats), 0U);
  EXPECT_EQ(FailFrac(stats), 0.0);
  stats.pushed = 450;
  stats.shed_low = 300;
  stats.shed_critical = 250;
  EXPECT_EQ(Offered(stats), 1000U);
  EXPECT_DOUBLE_EQ(FailFrac(stats), 0.55);
}

TEST(ParallelEfficiencyTest, TaskTimeOverCapacity) {
  EXPECT_DOUBLE_EQ(ParallelEfficiency(2.4, 3, 1.0), 0.8);
  EXPECT_EQ(ParallelEfficiency(1.0, 3, 0.0), 0.0);
}

TEST(Fnv1aTest, KnownVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}

}  // namespace
}  // namespace perfbench
