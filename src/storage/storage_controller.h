#ifndef CEBIS_STORAGE_STORAGE_CONTROLLER_H
#define CEBIS_STORAGE_STORAGE_CONTROLLER_H

// StepObserver that puts a battery behind the meter at every cluster.
//
// Each accounted interval it sees the cluster's grid energy and the
// concurrent billing price, asks the scenario's charge policy for an
// intent, clamps it against the battery's physical limits (and, under a
// demand-charge tariff, against the month's established demand level so
// charging never creates a new billing peak), and accumulates two load
// series per cluster on the run's *native metering interval* - the
// market's price interval (hourly for the paper's setup, 5-minute for a
// 5-minute market): the raw draw the engine accounted and the net draw
// after the battery acted. At run end both series are billed under the
// scenario's tariff (billing/tariff.h) and the raw-vs-net comparison is
// folded into RunResult::storage.
//
// Charge guard. Demand is billed at the tariff's percentile of each
// calendar month's interval average power, so charging must never lift
// the billed net demand above the raw (no-battery) level:
//
//  - When the metering interval is no coarser than the accounting step
//    (a 5-minute market on the 5-minute trace, any market on the hourly
//    workload), the interval's raw load is known at decision time and
//    the guard is *exact*: charging in an interval is capped at
//    max(raw, L) where L is a provable lower bound on the month's final
//    billed raw demand (the R-7 lower order statistic of the month's
//    raw intervals so far, padded with zeros for the intervals still to
//    come - monotone in the padding, so it can only rise toward the
//    true level). Net billed demand <= raw billed demand then holds at
//    any percentile and any resolution, with no pro-rata sliver
//    (property-tested in tests/test_storage_metering.cpp).
//
//  - When the meter is coarser than the step (hourly metering of a
//    5-minute trace - the paper's original setup), the interval's
//    remaining load is unknowable at decision time and the guard keeps
//    the historical cumulative + pro-rata budget against the percentile
//    of the month's completed net intervals (byte-identical to the
//    pre-interval-metering behaviour; a mid-interval load jump after
//    charging can still nudge billed demand a fraction of a percent
//    above raw). Run the market at the workload's cadence to get the
//    exact guard.
//
// The controller never influences routing or the engine's own dollar
// accounting - it composes with SecondaryMeter and HourlyEnergyRecorder
// like any other observer. Scenarios engage it declaratively via
// ScenarioSpec::storage: core::plan_run builds one per run, for the
// scenario runner and the live engine alike, and the runner attaches it
// after the spec's own observers. It can also be attached by hand like
// any StepObserver.

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "core/scenario.h"
#include "core/simulation.h"
#include "core/step_observer.h"
#include "obs/metrics.h"
#include "storage/battery.h"
#include "storage/policy.h"

namespace cebis::storage {

/// Ascending order statistic of a growing multiset: a max-heap of the
/// smallest `rank + 1` elements against a min-heap of the rest, so both
/// insert() and at() are O(log n). The exact charge guard reads exactly
/// one order statistic per decision, at a rank that only advances as
/// the month's intervals complete - a sorted-vector insert would
/// memmove O(n) doubles per step and go quadratic over long sub-hourly
/// months (8928 five-minute intervals in a 31-day month).
class RunningOrderStatistic {
 public:
  /// Empties the multiset, keeping the heaps' storage, and makes room
  /// for `n` elements: inserting that many allocates nothing.
  void clear(std::size_t n) {
    low_.c.clear();
    high_.c.clear();
    low_.c.reserve(n);
    high_.c.reserve(n);
  }
  void insert(double x) {
    if (!low_.empty() && x <= low_.top()) {
      low_.push(x);
    } else {
      high_.push(x);
    }
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return low_.size() + high_.size();
  }
  /// Value at ascending 0-based `rank` (must be < size()). Rebalances
  /// the heaps toward the requested rank.
  [[nodiscard]] double at(std::size_t rank) {
    while (low_.size() < rank + 1) {
      low_.push(high_.top());
      high_.pop();
    }
    while (low_.size() > rank + 1) {
      high_.push(low_.top());
      low_.pop();
    }
    return low_.top();
  }

 private:
  /// A heap whose vector (the adaptor's protected `c`) is reachable.
  template <typename Order>
  struct Heap : std::priority_queue<double, std::vector<double>, Order> {
    using std::priority_queue<double, std::vector<double>, Order>::c;
  };
  Heap<std::less<>> low_;  // max-heap: the smallest elements
  Heap<std::greater<>> high_;
};

class StorageController final : public core::StepObserver {
 public:
  /// Validates the spec eagerly: the policy name first, then every
  /// battery and the policy's config against it (the per-cluster
  /// override's shape is checked at run begin). Throws
  /// std::invalid_argument.
  /// `metrics`, when given (borrowed, may be null), receives the
  /// charge-guard activation counter - incremented whenever the
  /// demand-charge guard clips a policy's charge intent. Write-only:
  /// the guard's decisions never read it back.
  explicit StorageController(core::StorageSpec spec,
                             obs::MetricsRegistry* metrics = nullptr);
  ~StorageController() override;

  void on_run_begin(const core::RunInfo& info,
                    std::span<const core::Cluster> clusters) override;
  void on_step(const core::StepView& view) override;
  void on_run_end(core::RunResult& result) override;

  /// Per-cluster batteries of the current/last run (post-run state of
  /// charge inspection).
  [[nodiscard]] const std::vector<Battery>& batteries() const noexcept {
    return batteries_;
  }
  /// True when the run's metering interval made the exact charge guard
  /// applicable (meter no coarser than the accounting step).
  // cebis-lint: allow(unreferenced-api) tests read the guard mode
  [[nodiscard]] bool exact_guard() const noexcept { return exact_guard_; }

 private:
  /// Provable lower bound on the month's final billed raw demand (MWh
  /// per interval) for one cluster: the R-7 lower order statistic of
  /// the month's raw intervals completed so far, zero-padded to the
  /// month's full (period-clipped) interval count. Non-const: reading
  /// the statistic rebalances the cluster's selection heaps.
  [[nodiscard]] double raw_demand_floor(std::size_t cluster);

  /// Resets per-month guard state when `month` starts (also used for
  /// run-begin initialization, so a run starting mid-month counts only
  /// the intervals the billing period actually covers - the historical
  /// sentinel-based init path left that count implicit).
  void begin_month(int month);

  core::StorageSpec spec_;

  obs::MetricsRegistry* metrics_ = nullptr;  ///< borrowed, may be null
  obs::Counter m_guard_activations_;         ///< resolved at run begin

  Period period_{0, 0};
  int steps_per_hour_ = 1;
  int meter_sph_ = 1;        ///< metering rows per hour (price interval)
  bool guard_peaks_ = false; ///< demand tariff + cap_charge_at_peak
  bool exact_guard_ = false; ///< meter interval <= accounting step

  std::vector<Battery> batteries_;
  std::vector<std::unique_ptr<ChargePolicy>> policies_;
  std::vector<std::vector<double>> raw_mwh_;   // [cluster][interval]
  std::vector<std::vector<double>> net_mwh_;   // [cluster][interval]
  std::vector<std::vector<double>> spot_;      // [cluster][interval]

  // --- month-scoped guard state ---------------------------------------
  int guard_month_ = 0;                ///< calendar month being metered
  std::int64_t month_intervals_ = 0;   ///< intervals of month ∩ period
  std::int64_t month_done_ = 0;        ///< completed intervals so far

  // Exact path: completed raw intervals, queryable by ascending rank.
  std::vector<RunningOrderStatistic> month_raw_stats_;  // per cluster

  // Legacy path (meter coarser than step): demand is billed on interval
  // energy at the tariff's demand percentile, so the guard compares the
  // accumulating interval against the month's established *billed*
  // level - the configured percentile of the completed net intervals
  // (the max for a plain peak tariff), budgeted cumulatively over the
  // interval AND pro-rata per step.
  std::vector<double> interval_net_mwh_;  ///< current interval's net draw
  std::vector<std::vector<double>> month_net_mwh_;  ///< completed net intervals
  std::vector<double> month_level_mwh_;   ///< billed level of those intervals
  std::int64_t guard_row_ = 0;            ///< interval row being accumulated
};

}  // namespace cebis::storage

#endif  // CEBIS_STORAGE_STORAGE_CONTROLLER_H
