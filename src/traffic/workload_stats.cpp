#include "traffic/workload_stats.h"

#include <cmath>
#include <stdexcept>

#include "stats/percentile.h"

namespace cebis::traffic {

std::vector<ClusterProfile> build_cluster_profiles(const ClusterLoads& loads,
                                                   const ProfileConfig& config) {
  if (config.headroom < 1.0) {
    throw std::invalid_argument("build_cluster_profiles: headroom < 1");
  }
  if (config.hits_per_server <= 0.0) {
    throw std::invalid_argument("build_cluster_profiles: hits_per_server <= 0");
  }
  std::vector<ClusterProfile> out;
  out.reserve(loads.clusters);
  for (std::size_t k = 0; k < loads.clusters; ++k) {
    const std::vector<double> series = loads.series(k);
    ClusterProfile p;
    double peak = 0.0;
    for (double v : series) peak = std::max(peak, v);
    p.peak = HitsPerSec{peak};
    p.p95 = HitsPerSec{stats::p95(series)};
    p.capacity = HitsPerSec{peak * config.headroom};
    p.servers = static_cast<int>(
        std::ceil(p.capacity.value() / config.hits_per_server));
    out.push_back(p);
  }
  return out;
}

SyntheticWorkload::SyntheticWorkload(const TrafficTrace& trace)
    : state_count_(trace.state_count()) {
  table_.assign(state_count_ * 7 * 24, 0.0);
  std::vector<double> counts(7 * 24, 0.0);

  // Accumulate 5-minute samples into (dow, hour) cells.
  for (std::int64_t step = 0; step < trace.steps(); ++step) {
    const HourIndex hour = trace.hour_of(step);
    const std::size_t cell = cell_of(hour);
    counts[cell] += 1.0;
    const auto row = trace.state_row(step);
    for (std::size_t si = 0; si < row.size(); ++si) {
      table_[cell * state_count_ + si] += row[si];
    }
  }
  for (std::size_t cell = 0; cell < 7 * 24; ++cell) {
    if (counts[cell] <= 0.0) continue;
    for (std::size_t si = 0; si < state_count_; ++si) {
      table_[cell * state_count_ + si] /= counts[cell];
    }
  }
}

std::size_t SyntheticWorkload::cell_of(HourIndex hour) {
  const auto dow = static_cast<std::size_t>(weekday(hour));
  const auto hod = static_cast<std::size_t>(hour_of_day(hour));
  return dow * 24 + hod;
}

HitsPerSec SyntheticWorkload::demand(StateId state, HourIndex hour) const {
  if (!state.valid() || state.index() >= state_count_) {
    throw std::out_of_range("SyntheticWorkload::demand");
  }
  return HitsPerSec{state_row(hour)[state.index()]};
}

std::span<const double> SyntheticWorkload::state_row(HourIndex hour) const {
  return {table_.data() + cell_of(hour) * state_count_, state_count_};
}

HitsPerSec SyntheticWorkload::total(HourIndex hour) const {
  double sum = 0.0;
  for (const double d : state_row(hour)) sum += d;
  return HitsPerSec{sum};
}

}  // namespace cebis::traffic
