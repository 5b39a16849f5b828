#ifndef CEBIS_TRAFFIC_WORKLOAD_STATS_H
#define CEBIS_TRAFFIC_WORKLOAD_STATS_H

// Workload-derived statistics the simulations need (paper §6.1):
//  - per-cluster capacity estimates (from observed peaks + headroom),
//  - per-cluster 95th percentile hit rates (the 95/5 constraint levels),
//  - the synthetic 39-month workload: hour-of-day x day-of-week average
//    demand per state, replayed over any period.

#include <span>
#include <vector>

#include "base/ids.h"
#include "base/simtime.h"
#include "base/units.h"
#include "traffic/akamai_allocation.h"
#include "traffic/trace.h"

namespace cebis::traffic {

/// Capacity and billing reference for one cluster.
struct ClusterProfile {
  HitsPerSec capacity;      ///< maximum sustainable hit rate
  HitsPerSec p95;           ///< observed baseline 95th percentile
  HitsPerSec peak;          ///< observed baseline peak
  int servers = 0;          ///< derived server count
};

struct ProfileConfig {
  /// Capacity headroom over the observed baseline peak. The paper
  /// derives capacities from observed hit rates and Akamai-reported
  /// region load levels; a cluster runs well below its limit at peak.
  double headroom = 1.30;
  /// Serving capacity of one server at full utilization (hits/sec).
  double hits_per_server = 300.0;
};

/// Builds per-cluster profiles from baseline loads.
[[nodiscard]] std::vector<ClusterProfile> build_cluster_profiles(
    const ClusterLoads& loads, const ProfileConfig& config = {});

/// The synthetic long-horizon workload (paper §6.1 / §6.3): per state,
/// the average hit rate for each (day-of-week, hour-of-day) cell of the
/// 24-day trace, replayed deterministically over any hour.
class SyntheticWorkload {
 public:
  explicit SyntheticWorkload(const TrafficTrace& trace);

  [[nodiscard]] std::size_t state_count() const noexcept { return state_count_; }

  /// Average demand of `state` at the given absolute hour.
  [[nodiscard]] HitsPerSec demand(StateId state, HourIndex hour) const;

  /// Every state's average demand at the given absolute hour (hits/s,
  /// indexed by state): one hour-of-week row, found once for all states.
  [[nodiscard]] std::span<const double> state_row(HourIndex hour) const;

  /// Sum across states at an hour.
  [[nodiscard]] HitsPerSec total(HourIndex hour) const;

 private:
  std::size_t state_count_ = 0;
  // [dow*24 + hour][state]
  std::vector<double> table_;

  [[nodiscard]] static std::size_t cell_of(HourIndex hour);
};

}  // namespace cebis::traffic

#endif  // CEBIS_TRAFFIC_WORKLOAD_STATS_H
