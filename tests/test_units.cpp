// Unit-type arithmetic: the strong types must behave like plain numbers
// within a unit and only combine across units through the physical
// product operators.

#include <gtest/gtest.h>

#include "base/units.h"
#include "test_support.h"

namespace cebis {
namespace {

TEST(Units, SameUnitArithmetic) {
  const Usd a{10.0};
  const Usd b{2.5};
  EXPECT_DOUBLE_EQ((a + b).value(), 12.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 7.5);
  EXPECT_DOUBLE_EQ((-b).value(), -2.5);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 20.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 20.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value(), 2.5);
}

TEST(Units, RatioOfSameUnitIsDimensionless) {
  const MegawattHours a{30.0};
  const MegawattHours b{10.0};
  EXPECT_DOUBLE_EQ(a / b, 3.0);
}

TEST(Units, CompoundAssignment) {
  Usd a{1.0};
  a += Usd{2.0};
  EXPECT_DOUBLE_EQ(a.value(), 3.0);
  a -= Usd{0.5};
  EXPECT_DOUBLE_EQ(a.value(), 2.5);
  a *= 4.0;
  EXPECT_DOUBLE_EQ(a.value(), 10.0);
}

TEST(Units, Ordering) {
  EXPECT_LT(UsdPerMwh{40.0}, UsdPerMwh{50.0});
  EXPECT_GE(Km{100.0}, Km{100.0});
  EXPECT_EQ(HitsPerSec{5.0}, HitsPerSec{5.0});
}

TEST(Units, PriceTimesEnergyIsMoney) {
  const UsdPerMwh price{60.0};
  const MegawattHours energy{2.0};
  EXPECT_DOUBLE_EQ((price * energy).value(), 120.0);
  EXPECT_DOUBLE_EQ((energy * price).value(), 120.0);
}

TEST(Units, PowerTimesTimeIsEnergy) {
  const Watts megawatt{1e6};
  EXPECT_DOUBLE_EQ((megawatt * Hours{2.0}).value(), 2.0);
  EXPECT_DOUBLE_EQ((Hours{0.5} * megawatt).value(), 0.5);
}

TEST(Units, IntensityTimesEnergyIsEmissions) {
  const KgCo2PerMwh intensity{500.0};
  const MegawattHours energy{3.0};
  EXPECT_DOUBLE_EQ((intensity * energy).value(), 1500.0);
  EXPECT_DOUBLE_EQ((energy * intensity).value(), 1500.0);
}

TEST(Units, FiveMinuteConstant) {
  EXPECT_NEAR(kFiveMinutes.value() * 12.0, kOneHour.value(), test::kTightTol);
}

TEST(Units, DefaultConstructedIsZero) {
  EXPECT_DOUBLE_EQ(Usd{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Km{}.value(), 0.0);
}

}  // namespace
}  // namespace cebis
