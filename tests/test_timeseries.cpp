// Time-series transforms: window averaging (Fig 5), differential runs
// (Fig 13) and grouped quartiles (Fig 11/12).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats/timeseries.h"

namespace cebis::stats {
namespace {

TEST(WindowAverage, BasicWindows) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  const std::vector<double> w2 = window_average(xs, 2);
  ASSERT_EQ(w2.size(), 3u);  // trailing element dropped
  EXPECT_DOUBLE_EQ(w2[0], 1.5);
  EXPECT_DOUBLE_EQ(w2[1], 3.5);
  EXPECT_DOUBLE_EQ(w2[2], 5.5);
  EXPECT_EQ(window_average(xs, 1).size(), xs.size());
  EXPECT_THROW((void)window_average(xs, 0), std::invalid_argument);
}

TEST(WindowAverage, SmoothingReducesVariance) {
  // The Fig 5 effect: averaging windows shrink the std-dev.
  std::vector<double> xs;
  for (int i = 0; i < 1024; ++i) xs.push_back(i % 2 == 0 ? 10.0 : -10.0);
  const auto w = window_average(xs, 4);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(DifferentialRuns, SplitsOnSignAndThreshold) {
  // +8 +8 | below | -7 -7 -7 | below  -> two runs.
  const std::vector<double> diff = {8.0, 8.0, 2.0, -7.0, -7.0, -7.0, 1.0};
  const auto runs = differential_runs(diff, 5.0);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].sign, 1);
  EXPECT_EQ(runs[0].length, 2u);
  EXPECT_EQ(runs[0].start, 0u);
  EXPECT_EQ(runs[1].sign, -1);
  EXPECT_EQ(runs[1].length, 3u);
  EXPECT_EQ(runs[1].start, 3u);
}

TEST(DifferentialRuns, SignReversalEndsRun) {
  const std::vector<double> diff = {10.0, -10.0, 10.0};
  const auto runs = differential_runs(diff, 5.0);
  ASSERT_EQ(runs.size(), 3u);
  for (const auto& r : runs) EXPECT_EQ(r.length, 1u);
}

TEST(DifferentialRuns, EmptyWhenAllBelowThreshold) {
  const std::vector<double> diff = {1.0, -2.0, 3.0};
  EXPECT_TRUE(differential_runs(diff, 5.0).empty());
  EXPECT_THROW((void)differential_runs(diff, -1.0), std::invalid_argument);
}

TEST(DurationFractions, TimeWeighted) {
  // One 1-hour run and one 3-hour run: fractions 0.25 / 0.75 of the
  // favoured time.
  std::vector<DifferentialRun> runs = {{0, 1, 1}, {5, 3, -1}};
  const auto frac = duration_time_fractions(runs, 5);
  ASSERT_EQ(frac.size(), 5u);
  EXPECT_DOUBLE_EQ(frac[0], 0.25);
  EXPECT_DOUBLE_EQ(frac[2], 0.75);
  EXPECT_DOUBLE_EQ(frac[1] + frac[3] + frac[4], 0.0);
}

TEST(DurationFractions, LongRunsClampIntoLastBucket) {
  std::vector<DifferentialRun> runs = {{0, 40, 1}};
  const auto frac = duration_time_fractions(runs, 10);
  EXPECT_DOUBLE_EQ(frac[9], 1.0);
  EXPECT_THROW((void)duration_time_fractions(runs, 0), std::invalid_argument);
}

TEST(GroupedQuartiles, GroupsByKey) {
  std::vector<double> xs;
  for (int i = 0; i < 48; ++i) xs.push_back(static_cast<double>(i));
  // Key = parity: evens in group 0, odds in group 1.
  const auto groups = grouped_quartiles(
      xs, [](std::size_t i) { return static_cast<int>(i % 2); }, 2);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].count, 24u);
  EXPECT_DOUBLE_EQ(groups[0].q.q50, 23.0);  // median of evens 0..46
  EXPECT_DOUBLE_EQ(groups[1].q.q50, 24.0);  // median of odds 1..47
}

TEST(GroupedQuartiles, NegativeKeysExcluded) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const auto groups = grouped_quartiles(
      xs, [](std::size_t i) { return i == 0 ? -1 : 0; }, 1);
  EXPECT_EQ(groups[0].count, 2u);
  EXPECT_THROW(
      (void)grouped_quartiles(xs, [](std::size_t) { return 0; }, 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace cebis::stats
