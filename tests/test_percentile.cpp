// Percentile math: the 95/5 billing quantity flows through these
// functions, and the engine's realized p95 through the streaming sketch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "stats/percentile.h"
#include "test_support.h"

namespace cebis::stats {
namespace {

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 17.5);
}

TEST(Percentile, UnsortedInputIsSorted) {
  const std::vector<double> xs = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 95.0), 7.0);
}

TEST(Percentile, Errors) {
  const std::vector<double> empty;
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)percentile(empty, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101.0), std::invalid_argument);
}

TEST(Percentile, P95OfUniformRamp) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_NEAR(p95(xs), 95.0, 0.1);
  EXPECT_NEAR(percentile(xs, 50.0), 50.5, test::kNumericTol);
}

TEST(Percentile, Quartiles) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const Quartiles q = quartiles(xs);
  EXPECT_DOUBLE_EQ(q.q25, 25.0);
  EXPECT_DOUBLE_EQ(q.q50, 50.0);
  EXPECT_DOUBLE_EQ(q.q75, 75.0);
}

TEST(StreamingPercentile, BitIdenticalToBatchAcrossSizesAndPs) {
  // The engine swaps stats::p95 over the retained load history for the
  // streaming top-K sketch; the swap is only legal because the sketch
  // reproduces the batch computation bit-for-bit.
  auto rng = test::test_rng();
  for (const double p : {0.0, 42.5, 95.0, 99.0, 100.0}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{19},
                                std::size_t{100}, std::size_t{577}}) {
      StreamingPercentile sketch(static_cast<std::int64_t>(n), p);
      std::vector<double> xs;
      xs.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Coarse quantization forces duplicate values across the kept /
        // discarded boundary.
        const double x = std::floor(rng.uniform(0.0, 20.0));
        xs.push_back(x);
        sketch.add(x);
      }
      const double batch = percentile(xs, p);
      const double streamed = sketch.value();
      EXPECT_EQ(batch, streamed) << "n=" << n << " p=" << p;
    }
  }
}

TEST(StreamingPercentile, Errors) {
  EXPECT_THROW(StreamingPercentile(0, 95.0), std::invalid_argument);
  EXPECT_THROW(StreamingPercentile(10, 101.0), std::invalid_argument);
  StreamingPercentile sketch(2, 95.0);
  sketch.add(1.0);
  EXPECT_THROW((void)sketch.value(), std::logic_error);  // one sample short
  sketch.add(2.0);
  EXPECT_EQ(sketch.count(), 2);
  EXPECT_THROW(sketch.add(3.0), std::logic_error);  // one sample over
}

/// Property sweep: percentile_sorted is monotone in p.
class PercentileMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  std::vector<double> xs;
  for (int i = 0; i < 57; ++i) xs.push_back(static_cast<double>((i * 13) % 57));
  std::sort(xs.begin(), xs.end());
  const double p = GetParam();
  EXPECT_LE(percentile_sorted(xs, p), percentile_sorted(xs, std::min(100.0, p + 5.0)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileMonotone,
                         ::testing::Values(0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0));

}  // namespace
}  // namespace cebis::stats
