// Battery model invariants: parameter validation, the charge/discharge
// clamps, and - the load-bearing property - exact state-of-charge
// conservation under round-trip efficiency across randomized operation
// traces (the ISSUE 3 acceptance fuzz: >= 100 random traces).

#include <gtest/gtest.h>

#include <stdexcept>

#include "storage/battery.h"
#include "test_support.h"

namespace cebis::storage {
namespace {

BatteryParams small_battery() {
  BatteryParams p;
  p.capacity = MegawattHours{10.0};
  p.max_charge = Watts{2e6};     // 2 MW
  p.max_discharge = Watts{4e6};  // 4 MW
  p.round_trip_efficiency = 0.8;
  p.initial_soc_fraction = 0.5;
  return p;
}

TEST(Battery, Validation) {
  BatteryParams p = small_battery();
  p.capacity = MegawattHours{-1.0};
  EXPECT_THROW(Battery{p}, std::invalid_argument);
  p = small_battery();
  p.max_charge = Watts{-1.0};
  EXPECT_THROW(Battery{p}, std::invalid_argument);
  p = small_battery();
  p.round_trip_efficiency = 0.0;
  EXPECT_THROW(Battery{p}, std::invalid_argument);
  p.round_trip_efficiency = 1.2;
  EXPECT_THROW(Battery{p}, std::invalid_argument);
  p = small_battery();
  p.initial_soc_fraction = 1.5;
  EXPECT_THROW(Battery{p}, std::invalid_argument);
}

TEST(Battery, InitialSoc) {
  Battery b(small_battery());
  EXPECT_DOUBLE_EQ(b.soc().value(), 5.0);
  EXPECT_DOUBLE_EQ(b.soc().value() / b.params().capacity.value(), 0.5);
}

TEST(Battery, ChargeRespectsPowerAndHeadroom) {
  Battery b(small_battery());
  // 2 MW for one hour caps the draw at 2 MWh.
  EXPECT_DOUBLE_EQ(b.charge(MegawattHours{100.0}, kOneHour).value(), 2.0);
  EXPECT_DOUBLE_EQ(b.soc().value(), 5.0 + 2.0 * 0.8);
  // Two more full-power hours take the soc to 6.6 + 1.6 + 1.6 = 9.8;
  // then the headroom binds: the last 0.2 MWh of soc needs 0.25 MWh of
  // grid energy, under the 2 MWh/h power cap.
  (void)b.charge(MegawattHours{100.0}, kOneHour);
  (void)b.charge(MegawattHours{100.0}, kOneHour);
  const double drawn = b.charge(MegawattHours{100.0}, kOneHour).value();
  EXPECT_NEAR(drawn, (10.0 - 9.8) / 0.8, test::kNumericTol);
  EXPECT_NEAR(b.soc().value(), 10.0, test::kNumericTol);
  // Full battery accepts nothing.
  EXPECT_DOUBLE_EQ(b.charge(MegawattHours{1.0}, kOneHour).value(), 0.0);
}

TEST(Battery, DischargeRespectsPowerAndSoc) {
  Battery b(small_battery());
  // 4 MW for 5 minutes = 1/3 MWh.
  EXPECT_NEAR(b.discharge(MegawattHours{5.0}, kFiveMinutes).value(), 4.0 / 12.0,
              test::kNumericTol);
  // Drain the rest; delivery stops at zero soc.
  double total = 4.0 / 12.0;
  for (int i = 0; i < 100; ++i) {
    total += b.discharge(MegawattHours{5.0}, kOneHour).value();
  }
  EXPECT_NEAR(total, 5.0, test::kNumericTol);
  EXPECT_NEAR(b.soc().value(), 0.0, test::kNumericTol);
  EXPECT_DOUBLE_EQ(b.discharge(MegawattHours{1.0}, kOneHour).value(), 0.0);
}

TEST(Battery, ZeroCapacityIsInert) {
  Battery b(BatteryParams{});
  EXPECT_DOUBLE_EQ(b.charge(MegawattHours{1.0}, kOneHour).value(), 0.0);
  EXPECT_DOUBLE_EQ(b.discharge(MegawattHours{1.0}, kOneHour).value(), 0.0);
  EXPECT_DOUBLE_EQ(b.soc().value(), 0.0);
}

TEST(Battery, SizingHelper) {
  const BatteryParams p = battery_for_mean_load(0.5, 4.0);
  EXPECT_DOUBLE_EQ(p.capacity.value(), 2.0);
  EXPECT_DOUBLE_EQ(p.max_charge.value(), 0.5e6);
  EXPECT_DOUBLE_EQ(p.max_discharge.value(), 0.5e6);
  EXPECT_DOUBLE_EQ(p.round_trip_efficiency, 0.85);
  EXPECT_THROW((void)battery_for_mean_load(-1.0, 4.0), std::invalid_argument);
  EXPECT_THROW((void)battery_for_mean_load(1.0, 4.0, 0.0), std::invalid_argument);
}

TEST(Battery, SocConservationFuzz) {
  // The acceptance invariant: across >= 100 randomized operation traces,
  //   soc == initial + efficiency * total_charged - total_discharged
  // holds exactly (within FP accumulation tolerance), soc never leaves
  // [0, capacity], and no clamp is ever exceeded.
  stats::Rng rng = test::test_rng(31);
  for (int trace = 0; trace < 120; ++trace) {
    BatteryParams p;
    p.capacity = MegawattHours{rng.uniform(0.1, 50.0)};
    p.max_charge = Watts{rng.uniform(0.05, 20.0) * 1e6};
    p.max_discharge = Watts{rng.uniform(0.05, 20.0) * 1e6};
    p.round_trip_efficiency = rng.uniform(0.5, 1.0);
    p.initial_soc_fraction = rng.uniform(0.0, 1.0);
    Battery b(p);
    const double initial = b.soc().value();

    for (int step = 0; step < 500; ++step) {
      const Hours dt{rng.bernoulli(0.5) ? 5.0 / 60.0 : 1.0};
      const MegawattHours request{rng.uniform(0.0, 10.0)};
      if (rng.bernoulli(0.5)) {
        const double drawn = b.charge(request, dt).value();
        EXPECT_LE(drawn, request.value() + test::kNumericTol);
        EXPECT_LE(drawn, (p.max_charge * dt).value() + test::kNumericTol);
      } else {
        const double delivered = b.discharge(request, dt).value();
        EXPECT_LE(delivered, request.value() + test::kNumericTol);
        EXPECT_LE(delivered, (p.max_discharge * dt).value() + test::kNumericTol);
      }
      ASSERT_GE(b.soc().value(), -test::kNumericTol);
      ASSERT_LE(b.soc().value(), p.capacity.value() + test::kNumericTol);
    }

    const double expected = initial +
                            p.round_trip_efficiency * b.total_charged().value() -
                            b.total_discharged().value();
    EXPECT_NEAR(b.soc().value(), expected, test::kSumTol) << "trace " << trace;
    EXPECT_NEAR(b.conversion_loss().value(),
                (1.0 - p.round_trip_efficiency) * b.total_charged().value(),
                test::kSumTol);
    EXPECT_GE(b.total_charged().value(), 0.0);
    EXPECT_GE(b.total_discharged().value(), 0.0);
  }
}

}  // namespace
}  // namespace cebis::storage
