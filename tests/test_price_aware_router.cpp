// The price-conscious optimizer (§6.1) on a hand-built three-cluster
// geography where every decision is checkable by eye:
//
//   state A (Boston)  - clusters: 0 Boston (0 km), 1 Chicago (~1400 km),
//                                 2 Los Angeles (~4200 km)
//   state B (Chicago) - cluster 1 at 0 km
//   state C (LA)      - cluster 2 at 0 km

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>

#include "core/price_aware_router.h"
#include "geo/distance_model.h"
#include "test_support.h"

namespace cebis::core {
namespace {

geo::LatLon kBoston{42.36, -71.06};
geo::LatLon kChicago{41.88, -87.63};
geo::LatLon kLosAngeles{34.05, -118.24};

class PriceAwareRouterTest : public ::testing::Test {
 protected:
  PriceAwareRouterTest() {
    states_.push_back(make_state("A", kBoston));
    states_.push_back(make_state("B", kChicago));
    states_.push_back(make_state("C", kLosAngeles));
    sites_ = {kBoston, kChicago, kLosAngeles};
    distances_ = std::make_unique<geo::DistanceModel>(states_, sites_);
  }

  static geo::StateInfo make_state(std::string_view code, geo::LatLon at) {
    geo::StateInfo s;
    s.code = code;
    s.name = code;
    s.population = 1e6;
    s.centroid = at;
    s.points = {geo::PopPoint{at, 1.0}};
    return s;
  }

  RoutingContext context() {
    RoutingContext ctx;
    ctx.demand = demand_;
    ctx.price = price_;
    ctx.capacity = capacity_;
    return ctx;
  }

  Allocation route(PriceAwareConfig config, RoutingContext ctx) {
    PriceAwareRouter router(*distances_, 3, config);
    Allocation out(3, 3);
    router.route(ctx, out);
    return out;
  }

  std::vector<geo::StateInfo> states_;
  std::vector<geo::LatLon> sites_;
  std::unique_ptr<geo::DistanceModel> distances_;
  std::vector<double> demand_ = {100.0, 0.0, 0.0};
  std::vector<double> price_ = {60.0, 40.0, 20.0};
  std::vector<double> capacity_ = {1000.0, 1000.0, 1000.0};
};

TEST_F(PriceAwareRouterTest, PicksCheapestWithinThreshold) {
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1500.0};  // Boston can reach Chicago, not LA
  const Allocation out = route(cfg, context());
  EXPECT_DOUBLE_EQ(out.hits(0, 1), 100.0);  // Chicago is cheaper than Boston
  EXPECT_DOUBLE_EQ(out.hits(0, 2), 0.0);    // LA out of reach
}

TEST_F(PriceAwareRouterTest, HugeThresholdChasesCheapest) {
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{10000.0};
  const Allocation out = route(cfg, context());
  EXPECT_DOUBLE_EQ(out.hits(0, 2), 100.0);  // LA cheapest nationwide
}

TEST_F(PriceAwareRouterTest, ZeroThresholdDegeneratesToClosest) {
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{0.0};
  const Allocation out = route(cfg, context());
  EXPECT_DOUBLE_EQ(out.hits(0, 0), 100.0);  // nearest cluster only
}

TEST_F(PriceAwareRouterTest, PriceThresholdIgnoresSmallDifferentials) {
  price_ = {60.0, 56.0, 100.0};  // Chicago only $4 cheaper
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1500.0};
  cfg.price_threshold = UsdPerMwh{5.0};
  const Allocation out = route(cfg, context());
  EXPECT_DOUBLE_EQ(out.hits(0, 0), 100.0);  // stays home: not worth moving

  cfg.price_threshold = UsdPerMwh{2.0};
  const Allocation out2 = route(cfg, context());
  EXPECT_DOUBLE_EQ(out2.hits(0, 1), 100.0);  // now it moves
}

TEST_F(PriceAwareRouterTest, SpillsOnCapacity) {
  capacity_ = {1000.0, 30.0, 1000.0};
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1500.0};
  const Allocation out = route(cfg, context());
  EXPECT_DOUBLE_EQ(out.hits(0, 1), 30.0);   // cheap cluster fills up
  EXPECT_DOUBLE_EQ(out.hits(0, 0), 70.0);   // remainder stays home
}

TEST_F(PriceAwareRouterTest, RespectsP95WithoutBurst) {
  std::vector<double> p95 = {1000.0, 25.0, 1000.0};
  std::vector<std::uint8_t> burst = {0, 0, 0};
  RoutingContext ctx = context();
  ctx.p95_limit = p95;
  ctx.can_burst = burst;
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1500.0};
  const Allocation out = route(cfg, ctx);
  EXPECT_DOUBLE_EQ(out.hits(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(out.hits(0, 0), 75.0);
}

TEST_F(PriceAwareRouterTest, BurstsWhenDemandNeedsIt) {
  // Both Boston and Chicago p95-capped below the demand; Chicago may
  // burst. The burst pass should absorb the overflow at the cheaper
  // cluster instead of sending it cross-country.
  std::vector<double> p95 = {40.0, 25.0, 1000.0};
  std::vector<std::uint8_t> burst = {0, 1, 0};
  RoutingContext ctx = context();
  ctx.p95_limit = p95;
  ctx.can_burst = burst;
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1500.0};
  const Allocation out = route(cfg, ctx);
  EXPECT_DOUBLE_EQ(out.hits(0, 1), 25.0 + 35.0);  // strict fill + burst
  EXPECT_DOUBLE_EQ(out.hits(0, 0), 40.0);
  EXPECT_DOUBLE_EQ(out.hits(0, 2), 0.0);
}

TEST_F(PriceAwareRouterTest, IsolatedClientUsesNearestPlusSlack) {
  // With a 1 km threshold nothing is in range for Boston; the router
  // falls back to the closest cluster (Boston) plus anything within
  // 50 km of it (nothing here).
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1.0};
  const Allocation out = route(cfg, context());
  EXPECT_DOUBLE_EQ(out.hits(0, 0), 100.0);
}

TEST_F(PriceAwareRouterTest, AllStatesRouted) {
  demand_ = {100.0, 50.0, 25.0};
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1500.0};
  const Allocation out = route(cfg, context());
  double total = 0.0;
  for (std::size_t c = 0; c < 3; ++c) total += out.cluster_total(c);
  EXPECT_DOUBLE_EQ(total, 175.0);  // conservation
}

TEST_F(PriceAwareRouterTest, OverloadsClosestWhenEverythingFull) {
  capacity_ = {10.0, 10.0, 10.0};
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1500.0};
  const Allocation out = route(cfg, context());
  double total = 0.0;
  for (std::size_t c = 0; c < 3; ++c) total += out.cluster_total(c);
  EXPECT_DOUBLE_EQ(total, 100.0);  // demand is never dropped
  EXPECT_GT(out.hits(0, 0), 10.0);  // closest cluster overloaded
}

TEST_F(PriceAwareRouterTest, ContextValidation) {
  PriceAwareRouter router(*distances_, 3, PriceAwareConfig{});
  Allocation out(3, 3);
  RoutingContext bad = context();
  bad.demand = std::vector<double>{1.0};  // wrong size
  EXPECT_THROW(router.route(bad, out), std::invalid_argument);
}

TEST_F(PriceAwareRouterTest, ConstructorValidation) {
  EXPECT_THROW(PriceAwareRouter(*distances_, 0, PriceAwareConfig{}),
               std::invalid_argument);
  EXPECT_THROW(PriceAwareRouter(*distances_, 4, PriceAwareConfig{}),
               std::invalid_argument);
  PriceAwareConfig bad;
  bad.distance_threshold = Km{-1.0};
  EXPECT_THROW(PriceAwareRouter(*distances_, 3, bad), std::invalid_argument);
}

TEST_F(PriceAwareRouterTest, RefusesNonFiniteRoutingPrices) {
  PriceAwareRouter router(*distances_, 3, PriceAwareConfig{});
  Allocation out(3, 3);
  router.route(context(), out);
  ASSERT_EQ(router.plan_rebuilds(), 1);
  const std::vector<double> good = price_;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    // Twice: an infinity compares equal to itself, so a refusal that
    // kept the bad prices as the plan's would replay on the second call.
    for (int call = 0; call < 2; ++call) {
      price_ = {60.0, bad, 20.0};
      try {
        router.route(context(), out);
        ADD_FAILURE() << "routed on a price of " << bad;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cluster 1"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
      }
    }
  }
  // The refusals left the plan as it was: the old prices replay it.
  price_ = good;
  router.route(context(), out);
  EXPECT_EQ(router.plan_rebuilds(), 1);
  EXPECT_DOUBLE_EQ(out.hits(0, 1), 100.0);
}

TEST_F(PriceAwareRouterTest, PlanHoldsAtMostSixtyFourClusters) {
  // Sites on a meridian west of Boston; cluster c is priced 10 + c, so
  // it holds rank c, and the most expensive one is rank bit 63.
  std::vector<geo::LatLon> sites;
  for (int i = 0; i < 65; ++i) {
    sites.push_back(geo::LatLon{30.0 + 0.2 * i, -90.0});
  }
  const auto one_state = std::span<const geo::StateInfo>(states_).first(1);
  const geo::DistanceModel dm(one_state, sites);
  PriceAwareConfig cfg;
  cfg.distance_threshold = Km{10000.0};
  EXPECT_THROW(PriceAwareRouter(dm, 65, cfg), std::invalid_argument);

  PriceAwareRouter router(dm, 64, cfg);
  const std::vector<double> demand = {100.0};
  std::vector<double> price(64);
  std::vector<double> capacity(64, 1.0);
  for (std::size_t c = 0; c < 64; ++c) price[c] = 10.0 + static_cast<double>(c);
  capacity[63] = 1000.0;
  RoutingContext ctx;
  ctx.demand = demand;
  ctx.price = price;
  ctx.capacity = capacity;
  Allocation out(1, 64);
  router.route(ctx, out);
  for (std::size_t c = 0; c < 63; ++c) {
    EXPECT_DOUBLE_EQ(out.hits(0, c), 1.0) << c;
  }
  EXPECT_DOUBLE_EQ(out.hits(0, 63), 37.0);
}

/// Sweep: cost of the chosen assignment is monotone non-increasing in
/// the distance threshold (more freedom never hurts the objective).
class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, WiderThresholdNeverPaysMore) {
  std::vector<geo::StateInfo> states;
  states.push_back([] {
    geo::StateInfo s;
    s.code = "A";
    s.centroid = kBoston;
    s.points = {geo::PopPoint{kBoston, 1.0}};
    return s;
  }());
  std::vector<geo::LatLon> sites = {kBoston, kChicago, kLosAngeles};
  geo::DistanceModel dm(states, sites);

  const std::vector<double> demand = {100.0};
  const std::vector<double> price = {60.0, 40.0, 20.0};
  const std::vector<double> capacity = {1000.0, 1000.0, 1000.0};

  auto cost_at = [&](double km) {
    PriceAwareConfig cfg;
    cfg.distance_threshold = Km{km};
    PriceAwareRouter router(dm, 3, cfg);
    Allocation out(1, 3);
    RoutingContext ctx;
    ctx.demand = demand;
    ctx.price = price;
    ctx.capacity = capacity;
    router.route(ctx, out);
    double cost = 0.0;
    for (std::size_t c = 0; c < 3; ++c) cost += out.cluster_total(c) * price[c];
    return cost;
  };
  EXPECT_LE(cost_at(GetParam() + 500.0), cost_at(GetParam()) + test::kNumericTol);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.0, 500.0, 1000.0, 1500.0, 2000.0,
                                           3000.0, 4000.0));

}  // namespace
}  // namespace cebis::core
