#include "geo/distance_model.h"

#include <stdexcept>

namespace cebis::geo {

Km weighted_distance(const StateInfo& state, const LatLon& site) {
  double km = 0.0;
  for (const auto& p : state.points) {
    km += p.weight * haversine(p.location, site).value();
  }
  return Km{km};
}

DistanceModel::DistanceModel(std::span<const StateInfo> states,
                             std::span<const LatLon> sites)
    : state_count_(states.size()), site_count_(sites.size()) {
  if (states.empty() || sites.empty()) {
    throw std::invalid_argument("DistanceModel: empty states or sites");
  }
  km_.reserve(state_count_ * site_count_);
  for (const auto& st : states) {
    for (const auto& site : sites) {
      km_.push_back(weighted_distance(st, site).value());
    }
  }
}

Km DistanceModel::distance(StateId state, std::size_t site) const {
  if (!state.valid() || state.index() >= state_count_ || site >= site_count_) {
    throw std::out_of_range("DistanceModel::distance");
  }
  return Km{at(state.index(), site)};
}

}  // namespace cebis::geo
