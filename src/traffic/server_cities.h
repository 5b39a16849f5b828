#ifndef CEBIS_TRAFFIC_SERVER_CITIES_H
#define CEBIS_TRAFFIC_SERVER_CITIES_H

// Akamai public-cluster locations (paper §6.1): the workload data covers
// 25 cities; seven are discarded for lack of electricity market data and
// the remaining eighteen group into nine clusters by market hub
// (Fig 19's CA1 CA2 MA NY IL VA NJ TX1 TX2).

#include <span>
#include <string_view>
#include <vector>

#include "base/ids.h"
#include "geo/latlon.h"
#include "market/hub.h"

namespace cebis::traffic {

struct ServerCity {
  std::string_view name;
  std::string_view state;  ///< USPS code
  geo::LatLon location;
  /// Market hub whose prices bill this city; invalid for the seven
  /// cities without market data.
  HubId hub = HubId::invalid();
};

/// Number of market-hub clusters the usable cities group into.
inline constexpr std::size_t kClusterCount = 9;

class ServerCityRegistry {
 public:
  [[nodiscard]] static const ServerCityRegistry& instance();

  [[nodiscard]] std::span<const ServerCity> all() const noexcept { return cities_; }
  [[nodiscard]] std::size_t size() const noexcept { return cities_.size(); }

  [[nodiscard]] const ServerCity& info(CityId id) const;

  /// Cluster index (0..8, ordered like HubRegistry::traffic_hubs()) for
  /// a city, or -1 for discarded cities.
  [[nodiscard]] int cluster_of(CityId id) const;

  /// The market hub billed for a cluster index.
  [[nodiscard]] HubId cluster_hub(std::size_t cluster) const;

  /// Short label for a cluster (Fig 19 style: CA1, CA2, MA, ...).
  [[nodiscard]] std::string_view cluster_label(std::size_t cluster) const;

  /// Locations of all cities (for distance models; indexed by CityId).
  [[nodiscard]] std::span<const geo::LatLon> locations() const noexcept {
    return locations_;
  }

 private:
  ServerCityRegistry();

  std::vector<ServerCity> cities_;
  std::vector<int> cluster_of_;
  std::vector<geo::LatLon> locations_;
  std::vector<HubId> cluster_hubs_;
  std::vector<std::string_view> cluster_labels_;
};

}  // namespace cebis::traffic

#endif  // CEBIS_TRAFFIC_SERVER_CITIES_H
