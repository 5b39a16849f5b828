#ifndef CEBIS_BILLING_TARIFF_H
#define CEBIS_BILLING_TARIFF_H

// Retail electricity tariffs with demand charges.
//
// The paper bills energy at the hourly wholesale price (assumption 2,
// §2.2). Real commercial tariffs add a *demand charge*: a monthly fee
// per kW of billed demand, where the billed demand is the peak (or a
// high percentile, composing with the 95/5 idiom of
// percentile_billing.h) of the month's hourly average power. Demand
// charges change the optimization objective entirely - flattening the
// load profile can matter more than chasing cheap hours (Xu & Li,
// arXiv:1307.5442) - and are what the storage subsystem's peak-shaving
// policy attacks.
//
// bill_interval_load() bills one cluster's energy series metered on a
// native interval (the shape RunResult::hourly_energy rows flatten to:
// samples_per_hour rows per hour), splitting demand by calendar month
// via base/simtime.h. Billed demand is the schedule's percentile of the
// month's *interval* average power, so a 5-minute market meters demand
// on 5-minute intervals, exactly like the real sub-hourly demand meters
// commercial tariffs read; hourly metering is samples_per_hour = 1.

#include <span>
#include <vector>

#include "base/simtime.h"
#include "base/units.h"

namespace cebis::billing {

struct TariffSchedule {
  /// Bill energy at the concurrent hourly wholesale price (the paper's
  /// model). When false, energy is billed at `energy_adder` alone (a
  /// flat retail rate).
  bool index_to_wholesale = true;
  /// Flat $/MWh added to every billed MWh (retail adder, or the whole
  /// rate when not indexed).
  UsdPerMwh energy_adder{0.0};
  /// Monthly demand charge per kW of billed demand. Zero disables the
  /// demand component (pure energy tariff).
  Usd demand_usd_per_kw_month{0.0};
  /// Billed demand = this percentile of the month's interval-average kW
  /// series (hourly at samples_per_hour = 1), in (0, 100]. 100 bills the
  /// true monthly peak; 95 composes with the billed_rate_p95 idiom
  /// (drop the top 5% of intervals).
  double demand_percentile = 100.0;
};

/// One month's demand line item.
struct MonthlyDemand {
  int month_index = 0;  ///< simtime month index (0 = Jan 2006)
  double billed_kw = 0.0;
  Usd charge;
};

struct TariffBill {
  Usd energy;
  Usd demand;
  std::vector<MonthlyDemand> months;

  [[nodiscard]] Usd total() const noexcept { return energy + demand; }
};

/// Bills an interval MWh series over `period` metered at
/// `samples_per_hour` rows per hour (mwh.size() must equal
/// period.hours() * samples_per_hour). `spot` is the concurrent $/MWh
/// series, parallel to `mwh`; required when the schedule is
/// wholesale-indexed, ignored otherwise. Demand is split by calendar
/// month and billed at the schedule's percentile of the month's
/// interval average power. Throws std::invalid_argument on shape or
/// schedule errors.
[[nodiscard]] TariffBill bill_interval_load(const TariffSchedule& schedule,
                                            Period period,
                                            int samples_per_hour,
                                            std::span<const double> mwh,
                                            std::span<const double> spot = {});

}  // namespace cebis::billing

#endif  // CEBIS_BILLING_TARIFF_H
