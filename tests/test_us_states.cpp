// The embedded census registry: 50 states + DC with plausible
// populations, normalized population points, and sane timezones.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "geo/us_states.h"
#include "test_support.h"

namespace cebis::geo {
namespace {

TEST(StateRegistry, FiftyOneEntries) {
  EXPECT_EQ(StateRegistry::instance().size(), 51u);
}

TEST(StateRegistry, UniqueCodes) {
  std::set<std::string_view> codes;
  for (const auto& s : StateRegistry::instance().all()) codes.insert(s.code);
  EXPECT_EQ(codes.size(), 51u);
}

TEST(StateRegistry, TotalPopulationNearCensus2000) {
  // 2000 census: ~281M.
  double total = 0.0;
  for (const auto& s : StateRegistry::instance().all()) total += s.population;
  EXPECT_NEAR(total, 281e6, 15e6);
}

TEST(StateRegistry, PointWeightsNormalized) {
  for (const auto& s : StateRegistry::instance().all()) {
    double sum = 0.0;
    ASSERT_FALSE(s.points.empty()) << s.code;
    for (const auto& p : s.points) {
      EXPECT_GT(p.weight, 0.0) << s.code;
      sum += p.weight;
    }
    EXPECT_NEAR(sum, 1.0, test::kNumericTol) << s.code;
  }
}

TEST(StateRegistry, TimezonesSane) {
  const auto& reg = StateRegistry::instance();
  EXPECT_EQ(reg.info(reg.by_code("MA")).utc_offset_hours, -5);
  EXPECT_EQ(reg.info(reg.by_code("TX")).utc_offset_hours, -6);
  EXPECT_EQ(reg.info(reg.by_code("CO")).utc_offset_hours, -7);
  EXPECT_EQ(reg.info(reg.by_code("CA")).utc_offset_hours, -8);
  EXPECT_EQ(reg.info(reg.by_code("HI")).utc_offset_hours, -10);
  for (const auto& s : reg.all()) {
    EXPECT_LE(s.utc_offset_hours, -5) << s.code;
    EXPECT_GE(s.utc_offset_hours, -10) << s.code;
  }
}

TEST(StateRegistry, CoordinatesInsideUsBounds) {
  for (const auto& s : StateRegistry::instance().all()) {
    EXPECT_GT(s.centroid.lat_deg, 18.0) << s.code;   // Hawaii ~21N
    EXPECT_LT(s.centroid.lat_deg, 72.0) << s.code;   // Alaska
    EXPECT_LT(s.centroid.lon_deg, -66.0) << s.code;  // Maine ~-67
    EXPECT_GT(s.centroid.lon_deg, -165.0) << s.code;
  }
}

TEST(StateRegistry, LargestStatesPresent) {
  const auto& reg = StateRegistry::instance();
  EXPECT_GT(reg.info(reg.by_code("CA")).population, 30e6);
  EXPECT_GT(reg.info(reg.by_code("TX")).population, 20e6);
  EXPECT_GT(reg.info(reg.by_code("NY")).population, 18e6);
  EXPECT_LT(reg.info(reg.by_code("WY")).population, 1e6);
}

TEST(StateRegistry, LookupFailures) {
  const auto& reg = StateRegistry::instance();
  EXPECT_FALSE(reg.by_code("XX").valid());
  EXPECT_THROW((void)reg.info(StateId::invalid()), std::out_of_range);
  EXPECT_THROW((void)reg.info(StateId{99}), std::out_of_range);
}

}  // namespace
}  // namespace cebis::geo
