#include "market/price_model.h"

#include <array>
#include <cmath>

namespace cebis::market {

PriceModelParams PriceModelParams::defaults() {
  PriceModelParams p;
  // CAISO's NP15/SP15 pair is correlated 0.94 in the paper despite the
  // ~560 km separation; a long kernel reproduces that. ERCOT shows some
  // internal non-linearity (paper footnote 8) - modelled with a shorter
  // kernel than the default.
  p.lambda_km_override[Rto::kCaiso] = 9000.0;
  p.lambda_km_override[Rto::kErcot] = 900.0;
  // ERCOT's scarcity pricing produces the extreme differential tails of
  // Fig 10b; NYISO and CAISO see occasional extreme events too.
  p.scarcity_rate_scale[Rto::kErcot] = 12.0;
  p.scarcity_rate_scale[Rto::kNyiso] = 2.0;
  p.scarcity_rate_scale[Rto::kCaiso] = 2.0;
  p.scarcity_rate_scale[Rto::kPjm] = 0.5;
  p.scarcity_rate_scale[Rto::kMiso] = 0.5;
  p.scarcity_rate_scale[Rto::kIsoNe] = 0.5;
  return p;
}

namespace {

// Hour-of-day shape, raw values before normalization to mean 1. Trough
// before dawn, ramp through the morning, broad afternoon/evening peak.
constexpr std::array<double, 24> kDiurnalRaw = {
    0.76, 0.72, 0.69, 0.68, 0.69, 0.74,  // 0-5
    0.86, 0.98, 1.06, 1.12, 1.16, 1.18,  // 6-11
    1.19, 1.21, 1.23, 1.25, 1.27, 1.28,  // 12-17
    1.23, 1.14, 1.06, 0.98, 0.89, 0.81,  // 18-23
};

constexpr double diurnal_mean() {
  double s = 0.0;
  for (double v : kDiurnalRaw) s += v;
  return s / 24.0;
}

// Month-of-year seasonal shape (index 0 = January).
constexpr std::array<double, 12> kSeasonal = {
    1.06, 1.00, 0.93, 0.89, 0.93, 1.04, 1.16, 1.18, 1.04, 0.93, 0.95, 1.05};

// National fuel multiplier per study month (0 = Jan 2006 .. 38 = Mar
// 2009). Mirrors Fig 3's envelope: stable 2006-2007, record natural-gas
// prices mid-2008, sharp decline with the downturn into 2009.
constexpr std::array<double, 39> kFuelCurve = {
    // 2006
    1.04, 1.00, 0.97, 0.95, 0.94, 0.96, 1.00, 1.01, 0.96, 0.93, 0.94, 0.97,
    // 2007
    0.98, 0.99, 0.99, 1.00, 1.01, 1.03, 1.04, 1.04, 1.03, 1.04, 1.06, 1.08,
    // 2008
    1.12, 1.16, 1.22, 1.28, 1.36, 1.43, 1.45, 1.38, 1.24, 1.08, 0.95, 0.87,
    // 2009 (Jan-Mar)
    0.82, 0.78, 0.75};

// Northwest hydro multiplier per study month: flat with spring-runoff
// dips (April lowest).
constexpr std::array<double, 12> kHydroSeason = {
    1.02, 0.98, 0.88, 0.72, 0.82, 0.92, 1.00, 1.04, 1.04, 1.02, 1.00, 1.02};

}  // namespace

double diurnal_multiplier(int local_hour, bool weekend) noexcept {
  const double base =
      kDiurnalRaw[static_cast<std::size_t>(((local_hour % 24) + 24) % 24)] /
      diurnal_mean();
  if (!weekend) return base;
  // Weekends: halve the swing around 1.0 and sit ~5% lower overall.
  return (1.0 + (base - 1.0) * 0.5) * 0.95;
}

double seasonal_multiplier(int month_1_to_12) noexcept {
  const int m = ((month_1_to_12 - 1) % 12 + 12) % 12;
  return kSeasonal[static_cast<std::size_t>(m)];
}

double gas_sensitivity(Rto rto) noexcept {
  switch (rto) {
    case Rto::kErcot: return 1.00;
    case Rto::kIsoNe: return 0.90;
    case Rto::kNyiso: return 0.90;
    case Rto::kCaiso: return 0.80;
    case Rto::kPjm: return 0.60;
    case Rto::kMiso: return 0.50;
    case Rto::kNonMarket: return 0.0;
  }
  return 0.0;
}

double national_fuel_curve(int month_index) noexcept {
  if (month_index < 0) month_index = 0;
  if (month_index >= static_cast<int>(kFuelCurve.size())) {
    month_index = static_cast<int>(kFuelCurve.size()) - 1;
  }
  return kFuelCurve[static_cast<std::size_t>(month_index)];
}

double hydro_seasonal_curve(int month_index) noexcept {
  const int m = ((month_index % 12) + 12) % 12;
  return kHydroSeason[static_cast<std::size_t>(m)];
}

double deterministic_shape(HourIndex t, const CivilDate& date,
                           int utc_offset_hours, Rto rto) noexcept {
  const int local = local_hour_of_day(t, utc_offset_hours);
  const bool weekend = is_weekend(local_weekday(t, utc_offset_hours));
  const int mi = month_index(date);
  double shape = diurnal_multiplier(local, weekend);
  if (rto == Rto::kNonMarket) {
    // Hydro-dominated region: seasonal shape from runoff, no gas link.
    shape *= hydro_seasonal_curve(mi);
  } else {
    shape *= seasonal_multiplier(date.month);
    const double g = gas_sensitivity(rto);
    shape *= 1.0 + g * (national_fuel_curve(mi) - 1.0);
  }
  return shape;
}

}  // namespace cebis::market
