// Charge/discharge policies: the closed set make_policy builds by name,
// config plumbing, and the behavioural contracts of the three built-ins
// (arbitrage bands, peak-shaving's rolling target, the Lyapunov
// thresholds tightening with state of charge and keeping the 1/eta
// conversion margin).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <string>

#include "storage/policy.h"
#include "test_support.h"

namespace cebis::storage {
namespace {

BatteryParams test_battery() {
  BatteryParams p;
  p.capacity = MegawattHours{10.0};
  p.max_charge = Watts{5e6};
  p.max_discharge = Watts{5e6};
  p.round_trip_efficiency = 0.8;
  return p;
}

PolicyContext context(const Battery& b, double price, double load_mwh,
                      Hours dt = kOneHour) {
  PolicyContext ctx;
  ctx.hour = 100;
  ctx.dt = dt;
  ctx.price_usd_per_mwh = price;
  ctx.load_mwh = load_mwh;
  ctx.battery = &b;
  return ctx;
}

// --- the named policy set ----------------------------------------------------

TEST(PolicyRegistry, ListsTheThreeBuiltins) {
  for (const char* name : {"arbitrage", "peak-shaving", "lyapunov"}) {
    EXPECT_NO_THROW((void)make_policy(name)) << name;
  }
  EXPECT_THROW((void)make_policy("no-such-policy"), std::invalid_argument);
}

TEST(PolicyRegistry, RoundTripConstructsEveryPolicy) {
  // Each name builds the policy that owns its config alternative: the
  // matching alternative is taken, the other two are refused.
  const PolicyConfig configs[] = {ArbitrageConfig{}, PeakShavingConfig{},
                                  LyapunovConfig{}};
  const char* names[] = {"arbitrage", "peak-shaving", "lyapunov"};
  for (std::size_t n = 0; n < std::size(names); ++n) {
    ASSERT_NE(make_policy(names[n]), nullptr) << names[n];
    for (std::size_t c = 0; c < std::size(configs); ++c) {
      if (c == n) {
        EXPECT_NE(make_policy(names[n], configs[c]), nullptr) << names[n];
      } else {
        EXPECT_THROW((void)make_policy(names[n], configs[c]),
                     std::invalid_argument)
            << names[n] << " with config alternative " << c;
      }
    }
  }
}

TEST(PolicyRegistry, RejectsBadInput) {
  // The policy set is closed: any other name is refused, naming it.
  try {
    (void)make_policy("no-such-policy");
    FAIL() << "an unknown policy must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'no-such-policy'"),
              std::string::npos)
        << e.what();
  }
  // Config mismatches are hard errors, mirroring the RouterRegistry.
  EXPECT_THROW((void)make_policy("arbitrage", PeakShavingConfig{}),
               std::invalid_argument);
  EXPECT_THROW((void)make_policy("lyapunov", ArbitrageConfig{}),
               std::invalid_argument);
}

TEST(PolicyRegistry, ValidatesConfigs) {
  EXPECT_THROW((void)make_policy("arbitrage",
                                 ArbitrageConfig{.charge_below = UsdPerMwh{50.0},
                                                 .discharge_above = UsdPerMwh{20.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)make_policy("peak-shaving", PeakShavingConfig{.window_hours = 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)make_policy("lyapunov", LyapunovConfig{.theta_fraction = 1.5}),
      std::invalid_argument);
  // An inverted band is rejected at construction; a band that loses
  // money at the battery's efficiency is rejected at run begin.
  EXPECT_THROW((void)make_policy("lyapunov", LyapunovConfig{.band_low = 1.3,
                                                            .band_high = 1.0}),
               std::invalid_argument);
  const auto tight = make_policy(
      "lyapunov", LyapunovConfig{.band_low = 0.9, .band_high = 1.0});
  BatteryParams lossy = test_battery();  // eta 0.8: 0.9 > 0.8 * 1.0
  EXPECT_THROW(tight->begin(lossy), std::invalid_argument);
}

// --- arbitrage --------------------------------------------------------------

TEST(ArbitragePolicy, ChargesLowDischargesHighIdlesBetween) {
  Battery b(test_battery());
  const auto policy = make_policy(
      "arbitrage", ArbitrageConfig{.charge_below = UsdPerMwh{25.0},
                                   .discharge_above = UsdPerMwh{70.0}});
  policy->begin(b.params());
  EXPECT_GT(policy->decide(context(b, 10.0, 1.0)), 0.0);
  EXPECT_EQ(policy->decide(context(b, 40.0, 1.0)), 0.0);
  EXPECT_LT(policy->decide(context(b, 90.0, 1.0)), 0.0);
}

// --- peak shaving -----------------------------------------------------------

TEST(PeakShavingPolicy, ShavesAboveRollingTargetRefillsBelow) {
  Battery b(test_battery());
  const auto policy = make_policy("peak-shaving",
                                  PeakShavingConfig{.window_hours = 24.0});
  policy->begin(b.params());
  // Establish a 1 MWh/h baseline: the first interval seeds the mean.
  EXPECT_NEAR(policy->decide(context(b, 50.0, 1.0)), 0.0, test::kNumericTol);
  // A spike to 3 MWh/h asks for roughly the excess from the battery.
  const double intent = policy->decide(context(b, 50.0, 3.0));
  EXPECT_LT(intent, -1.5);
  // A lull below the mean asks to refill - but never past the target.
  const double refill = policy->decide(context(b, 50.0, 0.2));
  EXPECT_GT(refill, 0.0);
  EXPECT_LT(refill, 1.2);
}

TEST(PeakShavingPolicy, TargetTracksSustainedLoadShift) {
  Battery b(test_battery());
  const auto policy = make_policy(
      "peak-shaving", PeakShavingConfig{.window_hours = 4.0});
  policy->begin(b.params());
  for (int i = 0; i < 100; ++i) (void)policy->decide(context(b, 50.0, 1.0));
  // After a long stretch at 4 MWh/h the rolling target catches up and
  // the shaving request fades out.
  double last = 0.0;
  for (int i = 0; i < 100; ++i) last = policy->decide(context(b, 50.0, 4.0));
  EXPECT_NEAR(last, 0.0, 0.05);
}

// --- lyapunov ---------------------------------------------------------------

TEST(LyapunovPolicy, ThresholdsTightenAsSocRises) {
  // theta = 6 MWh, auto v = theta / 120 = 0.05. With the online price
  // mean warmed to 40 the band is (30, 50); the raw drift thresholds
  // (gap * eta / v, gap / v) bind as the battery fills.
  BatteryParams params = test_battery();
  const auto policy = make_policy(
      "lyapunov",
      LyapunovConfig{.theta_fraction = 0.6,
                     .price_window_hours = 1e12});  // freeze the mean
  policy->begin(params);
  Battery empty(params);
  (void)policy->decide(context(empty, 40.0, 1.0));             // mean := 40
  EXPECT_GT(policy->decide(context(empty, 25.0, 1.0)), 0.0);   // < 30: charge
  EXPECT_EQ(policy->decide(context(empty, 35.0, 1.0)), 0.0);   // in the band
  // Raw discharge threshold at soc 0 is gap / v = 120, above the band's
  // 50: an empty battery does not sell cheap.
  EXPECT_EQ(policy->decide(context(empty, 80.0, 1.0)), 0.0);
  EXPECT_LT(policy->decide(context(empty, 130.0, 1.0)), 0.0);

  params.initial_soc_fraction = 0.3;  // soc 3, gap 3: raw 48 / 60
  Battery half(params);
  EXPECT_GT(policy->decide(context(half, 25.0, 1.0)), 0.0);   // band 30 binds
  EXPECT_EQ(policy->decide(context(half, 55.0, 1.0)), 0.0);   // below raw 60
  EXPECT_LT(policy->decide(context(half, 65.0, 1.0)), 0.0);   // above raw 60

  params.initial_soc_fraction = 0.57;  // gap 0.3: raw charge thr 4.8
  Battery nearly(params);
  EXPECT_EQ(policy->decide(context(nearly, 25.0, 1.0)), 0.0);  // tightened
  EXPECT_GT(policy->decide(context(nearly, 3.0, 1.0)), 0.0);

  params.initial_soc_fraction = 0.6;  // at theta: no more buying
  Battery full(params);
  EXPECT_EQ(policy->decide(context(full, 1.0, 1.0)), 0.0);
  EXPECT_LT(policy->decide(context(full, 55.0, 1.0)), 0.0);  // band 50 binds
}

TEST(LyapunovPolicy, ChargeDischargeBandsNeverOverlap) {
  // At every state of charge the highest price the policy would buy at
  // stays below eta times the lowest price it would sell at - the
  // margin that makes every completed round trip profitable. Both the
  // raw drift thresholds (ratio exactly eta) and the band clip
  // (band_low <= eta * band_high) preserve it.
  BatteryParams params = test_battery();
  for (double soc_fraction : {0.0, 0.1, 0.3, 0.5, 0.8, 1.0}) {
    const auto policy = make_policy(
        "lyapunov", LyapunovConfig{.price_window_hours = 1e12});
    policy->begin(params);
    params.initial_soc_fraction = soc_fraction;
    Battery b(params);
    (void)policy->decide(context(b, 60.0, 1.0));  // mean := 60
    double highest_charge = -1.0;
    double lowest_discharge = 1e9;
    for (double price = 0.05; price < 200.0; price += 0.05) {
      const double intent = policy->decide(context(b, price, 1.0));
      if (intent > 0.0) highest_charge = std::max(highest_charge, price);
      if (intent < 0.0) lowest_discharge = std::min(lowest_discharge, price);
    }
    ASSERT_LT(lowest_discharge, 1e9) << soc_fraction;
    if (highest_charge > 0.0) {
      EXPECT_LE(highest_charge,
                lowest_discharge * params.round_trip_efficiency + 0.05)
          << soc_fraction;
    }
    if (soc_fraction >= 0.7) {
      EXPECT_LT(highest_charge, 0.0) << soc_fraction;  // no buying past theta
    }
  }
}

TEST(LyapunovPolicy, ZeroCapacityIsInert) {
  BatteryParams params;  // zero capacity
  const auto policy = make_policy("lyapunov");
  policy->begin(params);
  Battery b(params);
  EXPECT_EQ(policy->decide(context(b, 1.0, 1.0)), 0.0);
  EXPECT_EQ(policy->decide(context(b, 500.0, 1.0)), 0.0);
}

}  // namespace
}  // namespace cebis::storage
