// Pearson correlation and the mutual-information check the paper uses to
// validate its Fig 8 findings (footnotes 7-8).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/correlation.h"
#include "stats/rng.h"
#include "test_support.h"

namespace cebis::stats {
namespace {

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + 3.0);
  }
  EXPECT_NEAR(pearson(x, y), 1.0, test::kTightTol);
  for (auto& v : y) v = -v;
  EXPECT_NEAR(pearson(x, y), -1.0, test::kTightTol);
}

TEST(Pearson, IndependentNearZero) {
  Rng rng = test::test_rng(1);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.normal());
    y.push_back(rng.normal());
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Pearson, SharedFactorGivesExpectedCorrelation) {
  // x = f + e1, y = f + e2 with equal variances: corr = 0.5.
  Rng rng = test::test_rng(2);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50000; ++i) {
    const double f = rng.normal();
    x.push_back(f + rng.normal());
    y.push_back(f + rng.normal());
  }
  EXPECT_NEAR(pearson(x, y), 0.5, 0.02);
}

TEST(Pearson, Errors) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y = {1.0};
  const std::vector<double> flat = {3.0, 3.0};
  EXPECT_THROW((void)pearson(x, y), std::invalid_argument);
  EXPECT_THROW((void)pearson(x, flat), std::invalid_argument);
}

TEST(MutualInformation, IndependentNearZero) {
  Rng rng = test::test_rng(3);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.normal());
    y.push_back(rng.normal());
  }
  EXPECT_LT(mutual_information(x, y, 8), 0.01);
}

TEST(MutualInformation, DetectsNonlinearDependence) {
  // y = x^2 has zero linear correlation but high MI - the reason the
  // paper's footnote 8 prefers MI for the NYISO/ERCOT pairs.
  Rng rng = test::test_rng(4);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.normal();
    x.push_back(v);
    y.push_back(v * v);
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
  EXPECT_GT(mutual_information(x, y, 8), 0.5);
}

TEST(MutualInformation, InvariantToMonotoneTransform) {
  Rng rng = test::test_rng(5);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> y_exp;
  for (int i = 0; i < 20000; ++i) {
    const double f = rng.normal();
    x.push_back(f + 0.5 * rng.normal());
    const double v = f + 0.5 * rng.normal();
    y.push_back(v);
    y_exp.push_back(std::exp(v));
  }
  const double mi_raw = mutual_information(x, y, 8);
  const double mi_exp = mutual_information(x, y_exp, 8);
  EXPECT_NEAR(mi_raw, mi_exp, 0.02);  // quantile binning
}

TEST(MutualInformation, Errors) {
  const std::vector<double> tiny = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)mutual_information(tiny, tiny, 8), std::invalid_argument);
  const std::vector<double> x(100, 1.0);
  EXPECT_THROW((void)mutual_information(x, x, 1), std::invalid_argument);
}

}  // namespace
}  // namespace cebis::stats
