#ifndef CEBIS_TRAFFIC_AKAMAI_ALLOCATION_H
#define CEBIS_TRAFFIC_AKAMAI_ALLOCATION_H

// The Akamai-like baseline allocation of client states to server cities.
//
// The paper observes (§4) that Akamai's mapping is mostly geographic but
// not purely so: some clients ride their ISP's network to distant
// clusters, and bandwidth constraints push others around. We model that
// as: each state splits its traffic across its three nearest server
// cities with fixed weights, except that a seeded fraction of states
// have one slot rewired to a distant "network affinity" city. Weights
// are static over the trace (Akamai's map changes slowly relative to the
// 24-day window).
//
// The allocation also defines the "9-region subset": the share of each
// state's traffic that lands on cities with electricity market data,
// normalized into per-cluster weights for the routing experiments.

#include <cstdint>
#include <vector>

#include "base/ids.h"
#include "geo/us_states.h"
#include "traffic/server_cities.h"
#include "traffic/trace.h"

namespace cebis::traffic {

struct BaselineConfig {
  double primary_weight = 0.60;
  double secondary_weight = 0.25;
  double tertiary_weight = 0.15;
  /// Fraction of states whose tertiary slot is rewired to a distant city.
  double affinity_fraction = 0.20;
};

class BaselineAllocation {
 public:
  BaselineAllocation(const geo::StateRegistry& states,
                     const ServerCityRegistry& cities, BaselineConfig config,
                     std::uint64_t seed);

  BaselineAllocation(std::uint64_t seed)
      : BaselineAllocation(geo::StateRegistry::instance(),
                           ServerCityRegistry::instance(), BaselineConfig{}, seed) {}

  /// Weight of `state` traffic sent to `city`; rows sum to 1.
  [[nodiscard]] double weight(StateId state, CityId city) const;

  /// Fraction of the state's traffic landing on the nine market-hub
  /// clusters (the "9-region subset").
  [[nodiscard]] double subset_fraction(StateId state) const;

  /// Baseline weight of the state's *subset* traffic on a cluster
  /// (0..kClusterCount-1); rows sum to 1 whenever subset_fraction > 0.
  [[nodiscard]] double cluster_weight(StateId state, std::size_t cluster) const;

  [[nodiscard]] std::size_t state_count() const noexcept { return state_count_; }
  // cebis-lint: allow(unreferenced-api) tests check the shape
  [[nodiscard]] std::size_t city_count() const noexcept { return city_count_; }

 private:
  std::size_t state_count_ = 0;
  std::size_t city_count_ = 0;
  std::vector<double> city_weight_;     // [state][city]
  std::vector<double> cluster_weight_;  // [state][cluster]
  std::vector<double> subset_fraction_; // [state]
};

/// Per-cluster baseline load series: cluster c's 5-minute hit rate when
/// the trace is routed with the baseline allocation.
struct ClusterLoads {
  std::int64_t steps = 0;
  std::size_t clusters = 0;
  std::vector<double> load;  // [step][cluster]

  [[nodiscard]] double at(std::int64_t step, std::size_t cluster) const;
  /// All samples for one cluster (copy; used for percentile math).
  [[nodiscard]] std::vector<double> series(std::size_t cluster) const;
};

[[nodiscard]] ClusterLoads baseline_cluster_loads(const TrafficTrace& trace,
                                                  const BaselineAllocation& alloc);

}  // namespace cebis::traffic

#endif  // CEBIS_TRAFFIC_AKAMAI_ALLOCATION_H
