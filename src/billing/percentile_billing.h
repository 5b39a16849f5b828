#ifndef CEBIS_BILLING_PERCENTILE_BILLING_H
#define CEBIS_BILLING_PERCENTILE_BILLING_H

// 95/5 bandwidth billing (paper §4): traffic is divided into 5-minute
// intervals and the 95th percentile is the billed quantity. The paper's
// routing experiments constrain the optimizer so that no cluster's 95th
// percentile rises above its baseline value.
//
// BurstBudget95 is the online form of that constraint: a cluster may
// exceed its reference level in at most 5% of the intervals seen so far,
// so the 95th percentile of the realized series never exceeds the
// reference.

#include <cstdint>
#include <span>
#include <vector>

#include "base/units.h"

namespace cebis::billing {

/// Computes the billed (95th percentile) rate for a series of 5-minute
/// samples.
// cebis-lint: allow(unreferenced-api) test_tariff's p95 oracle
[[nodiscard]] double billed_rate_p95(std::span<const double> samples);

/// Online 95/5 burst-budget tracker for one cluster.
class BurstBudget95 {
 public:
  /// `reference` is the cap that must hold at the 95th percentile
  /// (the baseline p95 in the paper's experiments).
  explicit BurstBudget95(double reference, double percentile = 95.0);

  [[nodiscard]] double reference() const noexcept { return reference_; }

  /// May the next interval exceed the reference without pushing the
  /// realized percentile above it?
  [[nodiscard]] bool can_burst() const noexcept;

  /// Record the realized load for the interval just routed.
  void record(double load);

  [[nodiscard]] std::int64_t intervals() const noexcept { return intervals_; }
  // cebis-lint: allow(unreferenced-api) tests audit the budget
  [[nodiscard]] std::int64_t bursts_used() const noexcept { return bursts_; }

  /// Fraction of intervals that exceeded the reference so far.
  // cebis-lint: allow(unreferenced-api) tests audit the budget
  [[nodiscard]] double burst_fraction() const noexcept;

 private:
  double reference_;
  double burst_quota_;  ///< allowed exceedance fraction (0.05 for 95/5)
  std::int64_t intervals_ = 0;
  std::int64_t bursts_ = 0;
};

/// Convenience bundle: one budget per cluster.
class FleetBurstBudgets {
 public:
  FleetBurstBudgets(std::span<const double> references, double percentile = 95.0);

  [[nodiscard]] std::size_t size() const noexcept { return budgets_.size(); }
  [[nodiscard]] BurstBudget95& at(std::size_t cluster);
  [[nodiscard]] const BurstBudget95& at(std::size_t cluster) const;

  /// Record all clusters' loads for one interval.
  void record_all(std::span<const double> loads);

 private:
  std::vector<BurstBudget95> budgets_;
};

}  // namespace cebis::billing

#endif  // CEBIS_BILLING_PERCENTILE_BILLING_H
