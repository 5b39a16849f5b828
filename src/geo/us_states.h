#ifndef CEBIS_GEO_US_STATES_H
#define CEBIS_GEO_US_STATES_H

// US client-origin registry.
//
// The Akamai data localizes clients to US states (paper §4), and the
// paper derives "basic population density functions for each US state"
// from census data to compute population-weighted client-server
// distances (§6.1). We embed the 2000-census state populations and, per
// state, a small set of weighted population points (major metro areas
// plus a residual centroid) that stand in for the density function.

#include <span>
#include <string_view>
#include <vector>

#include "base/ids.h"
#include "geo/latlon.h"

namespace cebis::geo {

/// One population mass point inside a state.
struct PopPoint {
  LatLon location;
  double weight = 0.0;  ///< fraction of the state's population, sums to 1
};

struct StateInfo {
  std::string_view code;  ///< USPS code ("MA")
  std::string_view name;
  double population = 0.0;     ///< 2000 census, persons
  int utc_offset_hours = -5;   ///< standard-time UTC offset
  LatLon centroid;             ///< population centroid (approx.)
  std::vector<PopPoint> points;
};

/// Immutable registry of the 50 states + DC.
class StateRegistry {
 public:
  /// The process-wide registry (built once, never mutated).
  [[nodiscard]] static const StateRegistry& instance();

  [[nodiscard]] std::span<const StateInfo> all() const noexcept { return states_; }
  [[nodiscard]] std::size_t size() const noexcept { return states_.size(); }

  [[nodiscard]] const StateInfo& info(StateId id) const;

  /// Looks up a state by USPS code; returns StateId::invalid() if absent.
  [[nodiscard]] StateId by_code(std::string_view code) const noexcept;

 private:
  StateRegistry();

  std::vector<StateInfo> states_;
};

}  // namespace cebis::geo

#endif  // CEBIS_GEO_US_STATES_H
