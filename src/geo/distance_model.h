#ifndef CEBIS_GEO_DISTANCE_MODEL_H
#define CEBIS_GEO_DISTANCE_MODEL_H

// Population-weighted client-server distance (paper §6.1 "Client-Server
// Distance"): the distance from a client state to a candidate server
// site is the population-density-weighted mean of the great-circle
// distances from the state's population points to the site. The model
// precomputes the full state x site matrix once; the router then does
// O(1) lookups inside its hot loop.

#include <span>
#include <vector>

#include "base/ids.h"
#include "base/units.h"
#include "geo/latlon.h"
#include "geo/us_states.h"

namespace cebis::geo {

class DistanceModel {
 public:
  /// Builds the matrix for every state in `states` against every site.
  DistanceModel(std::span<const StateInfo> states, std::span<const LatLon> sites);

  [[nodiscard]] std::size_t state_count() const noexcept { return state_count_; }
  [[nodiscard]] std::size_t site_count() const noexcept { return site_count_; }

  /// Population-weighted distance from a client state to a site.
  [[nodiscard]] Km distance(StateId state, std::size_t site) const;

 private:
  std::size_t state_count_ = 0;
  std::size_t site_count_ = 0;
  std::vector<double> km_;  // row-major [state][site]

  [[nodiscard]] double at(std::size_t s, std::size_t c) const {
    return km_[s * site_count_ + c];
  }
};

/// Population-weighted distance from one state to one site (the single
/// computation DistanceModel batches).
[[nodiscard]] Km weighted_distance(const StateInfo& state, const LatLon& site);

}  // namespace cebis::geo

#endif  // CEBIS_GEO_DISTANCE_MODEL_H
