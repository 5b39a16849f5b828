// RollingEstimators (service/rolling_estimators.h): the online mean
// must match stats::mean bit-for-bit at every prefix - the live
// dashboard and the nightly batch report may never disagree by
// floating-point drift. Plus the EWMA seeding and empty queries.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "service/rolling_estimators.h"
#include "stats/descriptive.h"
#include "test_support.h"

namespace cebis::service {
namespace {

/// Samples nasty enough to expose accumulation-order differences:
/// alternating magnitudes, negatives, exact ties.
std::vector<double> awkward_samples(std::size_t n) {
  stats::Rng rng = test::test_rng(/*stream=*/77);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = (i % 3 == 0) ? 1e8 : (i % 3 == 1 ? 1e-6 : 1.0);
    double x = scale * (rng.uniform() - 0.5);
    if (i % 7 == 0 && i > 0) x = xs[i - 1];  // exact ties
    xs.push_back(x);
  }
  return xs;
}

TEST(RollingEstimators, MeanMatchesBatchStatsBitForBit) {
  const std::vector<double> xs = awkward_samples(500);
  RollingEstimators est;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    est.add(xs[i]);
    const std::span<const double> prefix(xs.data(), i + 1);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(est.mean()),
              std::bit_cast<std::uint64_t>(stats::mean(prefix)))
        << "prefix length " << i + 1;
  }
  EXPECT_EQ(est.count(), static_cast<std::int64_t>(xs.size()));
  EXPECT_EQ(est.last(), xs.back());
}

TEST(RollingEstimators, EwmaSeedsWithTheFirstSample) {
  // The newest sample weighs 0.1.
  RollingEstimators est;
  est.add(8.0);
  EXPECT_EQ(est.ewma(), 8.0);  // seeded, not decayed from zero
  est.add(4.0);
  EXPECT_DOUBLE_EQ(est.ewma(), 0.1 * 4.0 + 0.9 * 8.0);
  est.add(4.0);
  EXPECT_DOUBLE_EQ(est.ewma(), 0.1 * 4.0 + 0.9 * (0.1 * 4.0 + 0.9 * 8.0));
}

TEST(RollingEstimators, ValidatesParametersAndEmptyQueries) {
  const RollingEstimators empty;
  EXPECT_EQ(empty.count(), 0);
  EXPECT_THROW((void)empty.mean(), std::logic_error);
  EXPECT_THROW((void)empty.ewma(), std::logic_error);
}

}  // namespace
}  // namespace cebis::service
