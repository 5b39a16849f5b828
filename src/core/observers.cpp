#include "core/observers.h"

namespace cebis::core {

void SecondaryMeter::on_run_begin(const RunInfo& /*info*/,
                                  std::span<const Cluster> clusters) {
  clusters_ = clusters;
  rate_.assign(clusters.size(), 0.0);
  per_cluster_.assign(clusters.size(), 0.0);
  have_hour_ = false;
  total_ = 0.0;
}

void SecondaryMeter::on_step(const StepView& view) {
  if (!have_hour_ || view.hour != cached_hour_) {
    cached_hour_ = view.hour;
    have_hour_ = true;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      rate_[c] = series_.rt_at(clusters_[c].hub, view.hour).value();
    }
  }
  const std::size_t n = clusters_.size();
  for (std::size_t c = 0; c < n; ++c) {
    const double e = view.energy_mwh[c];
    if (e == 0.0) continue;  // suspended cluster (demand response)
    const double metered = rate_[c] * e;
    per_cluster_[c] += metered;
    total_ += metered;
  }
}

void HourlyEnergyRecorder::on_run_begin(const RunInfo& info,
                                        std::span<const Cluster> clusters) {
  steps_per_hour_ = info.steps_per_hour;
  rows_per_hour_ = native_intervals_ ? info.price_samples_per_hour : 1;
  energy_ = HourlyEnergy(static_cast<std::size_t>(info.period.hours()),
                         rows_per_hour_, clusters.size());
}

void HourlyEnergyRecorder::on_step(const StepView& view) {
  // The rows the step covers (its hour, or in native-interval mode its
  // price interval); a step coarser than the rows spreads its energy
  // uniformly across them.
  const StepRows rows = step_rows(view.step, steps_per_hour_, rows_per_hour_);
  const std::size_t n = energy_.clusters();
  for (std::size_t c = 0; c < n; ++c) {
    const double e = view.energy_mwh[c];
    if (e == 0.0) continue;
    const double share = e / static_cast<double>(rows.count);
    for (std::int64_t i = 0; i < rows.count; ++i) {
      energy_.at(static_cast<std::size_t>(rows.first + i), c) += share;
    }
  }
}

void HourlyEnergyRecorder::on_run_end(RunResult& result) {
  result.hourly_energy = energy_;
}

}  // namespace cebis::core
