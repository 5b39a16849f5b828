// Server city registry: 25 cities, 18 with market data, nine clusters.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "traffic/server_cities.h"

namespace cebis::traffic {
namespace {

TEST(ServerCities, TwentyFiveCities) {
  const auto& reg = ServerCityRegistry::instance();
  EXPECT_EQ(reg.size(), 25u);
  int with_market = 0;
  for (const auto& c : reg.all()) {
    if (c.hub.valid()) ++with_market;
  }
  EXPECT_EQ(with_market, 18);  // paper: seven cities discarded
}

TEST(ServerCities, NineClustersAllPopulated) {
  const auto& reg = ServerCityRegistry::instance();
  std::set<int> clusters;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const int k = reg.cluster_of(CityId{static_cast<std::int32_t>(i)});
    if (k >= 0) clusters.insert(k);
  }
  EXPECT_EQ(clusters.size(), kClusterCount);
}

TEST(ServerCities, DiscardedCitiesHaveNoCluster) {
  const auto& reg = ServerCityRegistry::instance();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const CityId id{static_cast<std::int32_t>(i)};
    if (!reg.info(id).hub.valid()) {
      EXPECT_EQ(reg.cluster_of(id), -1) << reg.info(id).name;
    }
  }
}

TEST(ServerCities, ClusterLabelsMatchFig19) {
  const auto& reg = ServerCityRegistry::instance();
  const char* expected[] = {"CA1", "CA2", "MA", "NY", "IL", "VA", "NJ", "TX1", "TX2"};
  for (std::size_t k = 0; k < kClusterCount; ++k) {
    EXPECT_EQ(reg.cluster_label(k), expected[k]);
  }
}

TEST(ServerCities, ClusterHubsAreTrafficHubs) {
  const auto& reg = ServerCityRegistry::instance();
  const auto& hubs = market::HubRegistry::instance();
  const auto traffic_hubs = hubs.traffic_hubs();
  for (std::size_t k = 0; k < kClusterCount; ++k) {
    EXPECT_EQ(reg.cluster_hub(k), traffic_hubs[k]);
  }
}

TEST(ServerCities, CitiesGroupByStateSensibly) {
  const auto& reg = ServerCityRegistry::instance();
  // All TX cities map to TX1/TX2; all CA cities to CA1/CA2.
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const CityId id{static_cast<std::int32_t>(i)};
    const auto& c = reg.info(id);
    const int k = reg.cluster_of(id);
    if (k < 0) continue;
    const auto label = reg.cluster_label(static_cast<std::size_t>(k));
    if (c.state == "TX") {
      EXPECT_TRUE(label == "TX1" || label == "TX2");
    }
    if (c.state == "CA") {
      EXPECT_TRUE(label == "CA1" || label == "CA2");
    }
    if (c.state == "MA") {
      EXPECT_EQ(label, "MA");
    }
  }
}

TEST(ServerCities, LocationsSpanIndex) {
  const auto& reg = ServerCityRegistry::instance();
  EXPECT_EQ(reg.locations().size(), reg.size());
}

TEST(ServerCities, Errors) {
  const auto& reg = ServerCityRegistry::instance();
  EXPECT_THROW((void)reg.info(CityId::invalid()), std::out_of_range);
  EXPECT_THROW((void)reg.cluster_of(CityId{99}), std::out_of_range);
  EXPECT_THROW((void)reg.cluster_hub(9), std::out_of_range);
  EXPECT_THROW((void)reg.cluster_label(9), std::out_of_range);
}

}  // namespace
}  // namespace cebis::traffic
