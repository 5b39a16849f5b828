#ifndef CEBIS_TRAFFIC_TRACE_H
#define CEBIS_TRAFFIC_TRACE_H

// Traffic trace container: 5-minute hit-rate samples per client state
// over a period, plus non-US aggregates for the global view (Fig 14).

#include <span>
#include <string_view>
#include <vector>

#include "base/ids.h"
#include "base/simtime.h"
#include "base/units.h"

namespace cebis::traffic {

inline constexpr int kStepsPerHour = 12;  ///< 5-minute samples

/// Non-US aggregate regions (only needed for the global traffic curve).
enum class WorldRegion : int {
  kEurope = 0,
  kAsiaPacific = 1,
  kRestOfWorld = 2,
};
inline constexpr int kWorldRegionCount = 3;

[[nodiscard]] std::string_view to_string(WorldRegion r) noexcept;

class TrafficTrace {
 public:
  /// Creates an all-zero trace for `period` covering `state_count`
  /// states.
  TrafficTrace(Period period, std::size_t state_count);

  [[nodiscard]] const Period& period() const noexcept { return period_; }
  [[nodiscard]] std::int64_t steps() const noexcept {
    return period_.hours() * kStepsPerHour;
  }
  [[nodiscard]] std::size_t state_count() const noexcept { return state_count_; }

  /// Absolute hour containing a step.
  [[nodiscard]] HourIndex hour_of(std::int64_t step) const {
    return period_.begin + step / kStepsPerHour;
  }

  [[nodiscard]] HitsPerSec hits(std::int64_t step, StateId state) const;
  void set_hits(std::int64_t step, StateId state, HitsPerSec value);

  void set_world(std::int64_t step, WorldRegion region, HitsPerSec value);

  /// Sum across US states at a step.
  [[nodiscard]] HitsPerSec us_total(std::int64_t step) const;

  /// US + world regions.
  [[nodiscard]] HitsPerSec global_total(std::int64_t step) const;

  /// Row view over all states at one step.
  [[nodiscard]] std::span<const double> state_row(std::int64_t step) const;

  /// Multiplies every sample (US and world) by `factor`; used to
  /// calibrate the trace to a target peak.
  void scale(double factor);

 private:
  Period period_;
  std::size_t state_count_;
  std::vector<double> us_;     // [step][state]
  std::vector<double> world_;  // [step][region]

  [[nodiscard]] std::size_t check_step(std::int64_t step) const;
};

}  // namespace cebis::traffic

#endif  // CEBIS_TRAFFIC_TRACE_H
