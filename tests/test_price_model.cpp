// Deterministic price-shape components: diurnal/weekend/seasonal tables,
// the 39-month fuel curve (2008 hump), and the Northwest hydro curve
// with its April dips.

#include <gtest/gtest.h>

#include "market/price_model.h"
#include "test_support.h"

namespace cebis::market {
namespace {

TEST(PriceModel, DiurnalMeanIsOneOnWeekdays) {
  double sum = 0.0;
  for (int h = 0; h < 24; ++h) sum += diurnal_multiplier(h, false);
  EXPECT_NEAR(sum / 24.0, 1.0, test::kNumericTol);
}

TEST(PriceModel, DiurnalShape) {
  // Overnight trough, afternoon peak.
  EXPECT_LT(diurnal_multiplier(3, false), 0.8);
  EXPECT_GT(diurnal_multiplier(17, false), 1.2);
  EXPECT_GT(diurnal_multiplier(17, false), diurnal_multiplier(3, false));
}

TEST(PriceModel, WeekendFlattens) {
  const double peak_wd = diurnal_multiplier(17, false);
  const double peak_we = diurnal_multiplier(17, true);
  const double trough_wd = diurnal_multiplier(3, false);
  const double trough_we = diurnal_multiplier(3, true);
  EXPECT_LT(peak_we, peak_wd);
  EXPECT_GT(trough_we, trough_wd);
  EXPECT_LT(peak_we - trough_we, peak_wd - trough_wd);
}

TEST(PriceModel, DiurnalWrapsHourInput) {
  EXPECT_DOUBLE_EQ(diurnal_multiplier(24, false), diurnal_multiplier(0, false));
  EXPECT_DOUBLE_EQ(diurnal_multiplier(-1, false), diurnal_multiplier(23, false));
}

TEST(PriceModel, SeasonalSummerPeak) {
  EXPECT_GT(seasonal_multiplier(7), 1.1);   // July
  EXPECT_GT(seasonal_multiplier(8), 1.1);   // August
  EXPECT_LT(seasonal_multiplier(4), 0.95);  // April shoulder
  EXPECT_DOUBLE_EQ(seasonal_multiplier(1), seasonal_multiplier(13));  // wraps
}

TEST(PriceModel, FuelCurve2008Hump) {
  // Flat-ish 2006-2007, peak mid-2008, crash into 2009 (Fig 3).
  EXPECT_NEAR(national_fuel_curve(0), 1.0, 0.1);    // Jan 2006
  EXPECT_NEAR(national_fuel_curve(18), 1.04, 0.1);  // Jul 2007
  EXPECT_GT(national_fuel_curve(30), 1.4);          // Jul 2008 peak
  EXPECT_LT(national_fuel_curve(38), 0.8);          // Mar 2009
  // Out-of-range clamps.
  EXPECT_DOUBLE_EQ(national_fuel_curve(-5), national_fuel_curve(0));
  EXPECT_DOUBLE_EQ(national_fuel_curve(100), national_fuel_curve(38));
}

TEST(PriceModel, HydroAprilDip) {
  // Fig 3: "The Northwest consistently experiences dips near April".
  double april = hydro_seasonal_curve(3);
  for (int m = 0; m < 12; ++m) {
    EXPECT_LE(april, hydro_seasonal_curve(m)) << "month " << m;
  }
  EXPECT_LT(april, 0.8);
  EXPECT_DOUBLE_EQ(hydro_seasonal_curve(3), hydro_seasonal_curve(15));  // wraps
}

TEST(PriceModel, GasSensitivityOrdering) {
  // ERCOT (86% gas+coal) tracks fuel fully; MISO coal-heavy less so;
  // the hydro Northwest not at all.
  EXPECT_DOUBLE_EQ(gas_sensitivity(Rto::kErcot), 1.0);
  EXPECT_GT(gas_sensitivity(Rto::kIsoNe), gas_sensitivity(Rto::kPjm));
  EXPECT_GT(gas_sensitivity(Rto::kPjm), gas_sensitivity(Rto::kNonMarket));
  EXPECT_DOUBLE_EQ(gas_sensitivity(Rto::kNonMarket), 0.0);
}

TEST(PriceModel, DeterministicShapeComposition) {
  // An ERCOT hub in July 2008, 5pm local: every multiplier is above 1.
  const HourIndex jul2008_5pm_ct = hour_at(CivilDate{2008, 7, 9}, 23);  // 17:00 CST
  const CivilDate date = date_of(jul2008_5pm_ct);
  const double shape = deterministic_shape(jul2008_5pm_ct, date, -6, Rto::kErcot);
  EXPECT_GT(shape, 1.5);
  // Northwest at the same instant: no gas exposure, flat hydro summer.
  const double nw =
      deterministic_shape(jul2008_5pm_ct, date, -8, Rto::kNonMarket);
  EXPECT_LT(nw, shape);
}

TEST(PriceModel, DefaultsHaveOverrides) {
  const PriceModelParams p = PriceModelParams::defaults();
  EXPECT_GT(p.lambda_for(Rto::kCaiso), p.factors.lambda_km);
  EXPECT_GT(p.scarcity_scale_for(Rto::kErcot), p.scarcity_scale_for(Rto::kPjm));
  EXPECT_DOUBLE_EQ(p.scarcity_scale_for(Rto::kNonMarket), 1.0);
}

}  // namespace
}  // namespace cebis::market
