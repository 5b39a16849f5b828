// Geography: haversine against known city distances (the paper's
// distance anchors: Boston-Alexandria ~650 km, Boston-Chicago ~1400 km)
// and the population-weighted distance model.

#include <gtest/gtest.h>

#include <stdexcept>

#include "geo/distance_model.h"
#include "geo/latlon.h"
#include "geo/us_states.h"
#include "test_support.h"

namespace cebis::geo {
namespace {

constexpr LatLon kBoston{42.36, -71.06};
constexpr LatLon kChicago{41.88, -87.63};
constexpr LatLon kAlexandria{38.80, -77.05};
constexpr LatLon kLosAngeles{34.05, -118.24};
constexpr LatLon kNewYork{40.71, -74.01};

TEST(Haversine, ZeroForSamePoint) {
  EXPECT_NEAR(haversine(kBoston, kBoston).value(), 0.0, test::kNumericTol);
}

TEST(Haversine, PaperAnchors) {
  // §6.2: "the distance between Boston and Alexandria in Virginia is
  // about 650km"; "the distance between Boston and Chicago is about
  // 1400km".
  EXPECT_NEAR(haversine(kBoston, kAlexandria).value(), 650.0, 40.0);
  EXPECT_NEAR(haversine(kBoston, kChicago).value(), 1400.0, 60.0);
}

TEST(Haversine, CrossCountry) {
  const double nyla = haversine(kNewYork, kLosAngeles).value();
  EXPECT_NEAR(nyla, 3940.0, 80.0);
}

TEST(Haversine, Symmetric) {
  EXPECT_DOUBLE_EQ(haversine(kBoston, kChicago).value(),
                   haversine(kChicago, kBoston).value());
}

TEST(WeightedDistance, CollapsesToHaversineForSinglePoint) {
  const auto& states = StateRegistry::instance();
  const StateId dc = states.by_code("DC");
  ASSERT_TRUE(dc.valid());
  const StateInfo& info = states.info(dc);
  ASSERT_EQ(info.points.size(), 1u);
  EXPECT_NEAR(weighted_distance(info, kBoston).value(),
              haversine(info.points[0].location, kBoston).value(), test::kNumericTol);
}

TEST(WeightedDistance, BetweenMinAndMaxPointDistance) {
  const auto& states = StateRegistry::instance();
  const StateId ca = states.by_code("CA");
  const StateInfo& info = states.info(ca);
  double lo = 1e18;
  double hi = 0.0;
  for (const auto& p : info.points) {
    const double d = haversine(p.location, kNewYork).value();
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  const double wd = weighted_distance(info, kNewYork).value();
  EXPECT_GE(wd, lo);
  EXPECT_LE(wd, hi);
}

class DistanceModelTest : public ::testing::Test {
 protected:
  DistanceModelTest()
      : sites_{kBoston, kChicago, kLosAngeles},
        model_(StateRegistry::instance().all(), sites_) {}

  std::vector<LatLon> sites_;
  DistanceModel model_;
};

TEST_F(DistanceModelTest, Dimensions) {
  EXPECT_EQ(model_.state_count(), StateRegistry::instance().size());
  EXPECT_EQ(model_.site_count(), 3u);
}

TEST_F(DistanceModelTest, Errors) {
  EXPECT_THROW((void)model_.distance(StateId::invalid(), 0), std::out_of_range);
  EXPECT_THROW((void)model_.distance(StateId{0}, 99), std::out_of_range);
  EXPECT_THROW(DistanceModel(StateRegistry::instance().all(), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cebis::geo
