// TrafficTrace container semantics.

#include <gtest/gtest.h>

#include <stdexcept>

#include "traffic/trace.h"

namespace cebis::traffic {
namespace {

TEST(TrafficTrace, Dimensions) {
  const TrafficTrace t(Period{0, 24}, 51);
  EXPECT_EQ(t.steps(), 24 * 12);
  EXPECT_EQ(t.state_count(), 51u);
  EXPECT_EQ(t.hour_of(0), 0);
  EXPECT_EQ(t.hour_of(11), 0);
  EXPECT_EQ(t.hour_of(12), 1);
}

TEST(TrafficTrace, SetAndGet) {
  TrafficTrace t(Period{0, 1}, 3);
  t.set_hits(0, StateId{1}, HitsPerSec{42.0});
  EXPECT_DOUBLE_EQ(t.hits(0, StateId{1}).value(), 42.0);
  EXPECT_DOUBLE_EQ(t.hits(0, StateId{0}).value(), 0.0);
}

TEST(TrafficTrace, Totals) {
  TrafficTrace t(Period{0, 1}, 2);
  t.set_hits(3, StateId{0}, HitsPerSec{10.0});
  t.set_hits(3, StateId{1}, HitsPerSec{20.0});
  t.set_world(3, WorldRegion::kEurope, HitsPerSec{5.0});
  t.set_world(3, WorldRegion::kAsiaPacific, HitsPerSec{2.0});
  EXPECT_DOUBLE_EQ(t.us_total(3).value(), 30.0);
  EXPECT_DOUBLE_EQ(t.global_total(3).value(), 37.0);
}

TEST(TrafficTrace, StateRowView) {
  TrafficTrace t(Period{0, 1}, 2);
  t.set_hits(5, StateId{0}, HitsPerSec{1.0});
  t.set_hits(5, StateId{1}, HitsPerSec{2.0});
  const auto row = t.state_row(5);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  EXPECT_DOUBLE_EQ(row[1], 2.0);
}

TEST(TrafficTrace, Scale) {
  TrafficTrace t(Period{0, 1}, 1);
  t.set_hits(0, StateId{0}, HitsPerSec{10.0});
  t.set_world(0, WorldRegion::kEurope, HitsPerSec{4.0});
  t.scale(2.5);
  EXPECT_DOUBLE_EQ(t.hits(0, StateId{0}).value(), 25.0);
  EXPECT_DOUBLE_EQ(t.global_total(0).value(), 35.0);  // world scaled too
  EXPECT_THROW(t.scale(0.0), std::invalid_argument);
}

TEST(TrafficTrace, Errors) {
  EXPECT_THROW(TrafficTrace(Period{0, 0}, 1), std::invalid_argument);
  EXPECT_THROW(TrafficTrace(Period{0, 1}, 0), std::invalid_argument);
  TrafficTrace t(Period{0, 1}, 2);
  EXPECT_THROW((void)t.hits(12, StateId{0}), std::out_of_range);
  EXPECT_THROW((void)t.hits(0, StateId{5}), std::out_of_range);
  EXPECT_THROW((void)t.hits(-1, StateId{0}), std::out_of_range);
  EXPECT_THROW(t.set_hits(0, StateId::invalid(), HitsPerSec{1.0}),
               std::out_of_range);
}

TEST(WorldRegion, Names) {
  EXPECT_EQ(to_string(WorldRegion::kEurope), "Europe");
  EXPECT_EQ(to_string(WorldRegion::kAsiaPacific), "Asia-Pacific");
}

}  // namespace
}  // namespace cebis::traffic
