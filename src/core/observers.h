#ifndef CEBIS_CORE_OBSERVERS_H
#define CEBIS_CORE_OBSERVERS_H

// Built-in StepObservers. These cover the compositions the extensions
// need: metering the routed energy against a second per-hub series
// (carbon intensity, or real dollars when the engine routes on a
// synthetic objective) and recording per-hour energy for settlement.
// Scenario code stacks any number of them on one run.

#include <span>
#include <vector>

#include "core/simulation.h"
#include "core/step_observer.h"
#include "market/price_series.h"

namespace cebis::core {

/// Meters each step's energy against a second per-hub hourly series
/// (same layout as the engine's prices) without influencing routing.
/// E.g. carbon intensity next to dollars, or dollars next to a blended
/// routing objective. Totals are read off the meter after the run;
/// meters stack freely since they do not write into the RunResult.
class SecondaryMeter final : public StepObserver {
 public:
  /// `series.period` must cover the workload period. The meter reads the
  /// series at hourly granularity (sub-hourly secondary series are read
  /// at their hour means) - the secondary quantities it exists for
  /// (carbon intensity, real-dollar audits) are hourly products.
  explicit SecondaryMeter(const market::PriceSet& series) : series_(series) {}

  void on_run_begin(const RunInfo& info,
                    std::span<const Cluster> clusters) override;
  void on_step(const StepView& view) override;

  /// Sum of rate x energy across the run.
  [[nodiscard]] double total() const noexcept { return total_; }
  [[nodiscard]] std::span<const double> per_cluster() const noexcept {
    return per_cluster_;
  }

 private:
  const market::PriceSet& series_;
  std::span<const Cluster> clusters_;
  std::vector<double> rate_;         // per-cluster rate, cached per hour
  std::vector<double> per_cluster_;  // accumulated rate x MWh
  HourIndex cached_hour_ = 0;
  bool have_hour_ = false;
  double total_ = 0.0;
};

/// Records per-interval, per-cluster energy into a flat HourlyEnergy
/// buffer and publishes it as RunResult::hourly_energy at run end.
/// Records hourly rows by default (the demand-response settlement and
/// the hedging bench consume that layout); construct with
/// `native_intervals = true` to record one row per native price
/// interval of the run instead (sub-hourly settlement).
class HourlyEnergyRecorder final : public StepObserver {
 public:
  explicit HourlyEnergyRecorder(bool native_intervals = false)
      : native_intervals_(native_intervals) {}

  void on_run_begin(const RunInfo& info,
                    std::span<const Cluster> clusters) override;
  void on_step(const StepView& view) override;
  void on_run_end(RunResult& result) override;

  /// The recorded buffer (also copied into the RunResult).
  [[nodiscard]] const HourlyEnergy& energy() const noexcept { return energy_; }

 private:
  bool native_intervals_ = false;
  HourlyEnergy energy_;
  int steps_per_hour_ = 1;
  int rows_per_hour_ = 1;
};

}  // namespace cebis::core

#endif  // CEBIS_CORE_OBSERVERS_H
