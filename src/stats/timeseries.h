#ifndef CEBIS_STATS_TIMESERIES_H
#define CEBIS_STATS_TIMESERIES_H

// Time-series transforms used by the market analysis:
//  - non-overlapping window averages (Fig 5's sigma-vs-window table),
//  - daily averages (Fig 3),
//  - sustained-differential run lengths (Fig 13),
//  - per-group (month / hour-of-day) median+IQR summaries (Fig 11, 12).

#include <functional>
#include <span>
#include <vector>

#include "stats/percentile.h"

namespace cebis::stats {

/// Means of consecutive non-overlapping windows of `window` samples; a
/// trailing partial window is dropped. window == 1 copies the input.
[[nodiscard]] std::vector<double> window_average(std::span<const double> xs,
                                                 std::size_t window);

/// A sustained price differential (paper §3.3 "Differential Duration"):
/// a maximal run of consecutive samples where one side is favoured by
/// more than `threshold`. The run ends as soon as the differential falls
/// below the threshold or reverses sign.
struct DifferentialRun {
  std::size_t start = 0;   ///< index of the first sample in the run
  std::size_t length = 0;  ///< number of samples (hours)
  int sign = 0;            ///< +1 if diff > threshold, -1 if diff < -threshold
};

[[nodiscard]] std::vector<DifferentialRun> differential_runs(
    std::span<const double> diff, double threshold);

/// Fraction of total favoured time spent in runs of each length
/// 1..max_len (Fig 13's x-axis is duration in hours, y-axis fraction of
/// total time). Runs longer than max_len are accumulated into the last
/// entry. Returned vector is indexed by length-1.
[[nodiscard]] std::vector<double> duration_time_fractions(
    std::span<const DifferentialRun> runs, std::size_t max_len);

/// Median + IQR for samples grouped by a key in [0, group_count).
struct GroupSummary {
  int group = 0;
  std::size_t count = 0;
  Quartiles q;
};

[[nodiscard]] std::vector<GroupSummary> grouped_quartiles(
    std::span<const double> xs, const std::function<int(std::size_t)>& key_of,
    int group_count);

}  // namespace cebis::stats

#endif  // CEBIS_STATS_TIMESERIES_H
