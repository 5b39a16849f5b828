// The discrete-time engine on a fully controlled micro-setup: one or two
// clusters, constant or scripted prices, and a hand-written workload, so
// that cost accounting, delay semantics, 95/5 budgets and shedding are
// all checkable analytically.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/baseline_routers.h"
#include "core/observers.h"
#include "core/price_aware_router.h"
#include "core/simulation.h"
#include "storage/storage_controller.h"
#include "test_support.h"

namespace cebis::core {
namespace {

geo::LatLon kBoston{42.36, -71.06};
geo::LatLon kChicago{41.88, -87.63};

/// Constant-demand workload over a short period.
class ConstWorkload final : public Workload {
 public:
  ConstWorkload(Period period, std::vector<double> demand, int steps_per_hour)
      : period_(period), demand_(std::move(demand)), sph_(steps_per_hour) {}

  [[nodiscard]] Period period() const override { return period_; }
  [[nodiscard]] int steps_per_hour() const override { return sph_; }
  [[nodiscard]] std::size_t state_count() const override { return demand_.size(); }
  void demand(std::int64_t, std::span<double> out) const override {
    std::copy(demand_.begin(), demand_.end(), out.begin());
  }

 private:
  Period period_;
  std::vector<double> demand_;
  int sph_;
};

/// Records whether a run ever started or ended.
class BeginProbe final : public StepObserver {
 public:
  void on_run_begin(const RunInfo&, std::span<const Cluster>) override {
    ++begins;
  }
  void on_step(const StepView&) override {}
  void on_run_end(RunResult&) override { ++ends; }
  int begins = 0;
  int ends = 0;
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    states_.push_back(make_state("A", kBoston));
    states_.push_back(make_state("B", kChicago));
    sites_ = {kBoston, kChicago};
    distances_ = std::make_unique<geo::DistanceModel>(states_, sites_);

    clusters_.push_back(make_cluster(0, "MA-BOS", 100));
    clusters_.push_back(make_cluster(1, "CHI", 100));
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

  Cluster make_cluster(int idx, std::string_view hub_code, int servers) {
    Cluster c;
    c.id = ClusterId{idx};
    c.hub = market::HubRegistry::instance().by_code(hub_code);
    c.label = hub_code;
    c.location = market::HubRegistry::instance().info(c.hub).location;
    c.servers = servers;
    c.capacity = HitsPerSec{servers * 300.0};
    c.p95_reference = HitsPerSec{servers * 200.0};
    return c;
  }

  /// Constant prices for the two hubs over [begin-2, begin+hours),
  /// `samples_per_hour` native samples per hour.
  market::PriceSet const_prices(HourIndex begin, std::int64_t hours, double p_bos,
                                double p_chi, int samples_per_hour = 1) {
    const Period p{begin - 2, begin + hours};
    market::PriceSet set;
    set.period = p;
    set.samples_per_hour = samples_per_hour;
    set.rt.resize(market::HubRegistry::instance().size());
    set.da.resize(set.rt.size());
    const auto n = static_cast<std::size_t>(p.hours() * samples_per_hour);
    set.rt[clusters_[0].hub.index()] = market::PriceSeries(
        p, samples_per_hour, std::vector<double>(n, p_bos));
    set.rt[clusters_[1].hub.index()] = market::PriceSeries(
        p, samples_per_hour, std::vector<double>(n, p_chi));
    return set;
  }

  std::vector<geo::StateInfo> states_;
  std::vector<geo::LatLon> sites_;
  std::unique_ptr<geo::DistanceModel> distances_;
  std::vector<Cluster> clusters_;
};

TEST_F(EngineTest, AnalyticCostForConstantLoad) {
  // Fully proportional model (0% idle, PUE 1.0): P(u) = n*Ppeak*(2u-u^1.4).
  const Period window{100, 100 + 10};
  const market::PriceSet prices = const_prices(100, 10, 50.0, 50.0);

  EngineConfig cfg;
  cfg.energy = energy::fully_proportional_params();
  cfg.delay_hours = 1;
  cfg.enforce_p95 = false;

  SimulationEngine engine(clusters_, prices, *distances_, cfg);
  // State A demands 15000 hits/s -> lands on cluster 0 at u = 0.5.
  ConstWorkload workload(window, {15000.0, 0.0}, 1);
  ClosestRouter router(*distances_, 2);
  const RunResult r = engine.run(workload, router);

  const double u = 0.5;
  const double watts =
      100.0 * 250.0 * (2.0 * u - std::pow(u, 1.4));  // cluster 0
  const double expected_mwh = watts * 10.0 / 1e6;
  EXPECT_NEAR(r.cluster_energy[0], expected_mwh, test::kNumericTol);
  EXPECT_NEAR(r.total_cost.value(), expected_mwh * 50.0, test::kSumTol);
  EXPECT_DOUBLE_EQ(r.cluster_energy[1], 0.0);  // idle + fully proportional
  EXPECT_EQ(r.overflow_steps, 0);
  EXPECT_NEAR(r.hit_hours, 15000.0 * 10.0, test::kSumTol);
}

TEST_F(EngineTest, IdlePowerChargedEverywhere) {
  const Period window{100, 101};
  const market::PriceSet prices = const_prices(100, 1, 80.0, 40.0);
  EngineConfig cfg;
  cfg.energy = energy::google_params();
  cfg.enforce_p95 = false;
  SimulationEngine engine(clusters_, prices, *distances_, cfg);
  ConstWorkload workload(window, {0.0, 0.0}, 1);
  ClosestRouter router(*distances_, 2);
  const RunResult r = engine.run(workload, router);
  // Both clusters burn fixed power even with zero demand; the expensive
  // hub bills more.
  EXPECT_GT(r.cluster_cost[0], 0.0);
  EXPECT_GT(r.cluster_cost[1], 0.0);
  EXPECT_NEAR(r.cluster_cost[0] / r.cluster_cost[1], 2.0, test::kNumericTol);
}

TEST_F(EngineTest, RoutingUsesStalePriceBillingUsesCurrent) {
  // Price flips at hour 101: Boston cheap in hour 100, Chicago cheap
  // after. With delay 1, the router at hour 101 still sees hour-100
  // prices and keeps traffic in Boston, billed at Boston's new (high)
  // price.
  const Period whole{98, 104};
  market::PriceSet prices;
  prices.period = whole;
  prices.rt.resize(market::HubRegistry::instance().size());
  prices.da.resize(prices.rt.size());
  std::vector<double> bos;
  std::vector<double> chi;
  for (HourIndex h = whole.begin; h < whole.end; ++h) {
    bos.push_back(h <= 100 ? 10.0 : 100.0);
    chi.push_back(h <= 100 ? 100.0 : 10.0);
  }
  prices.rt[clusters_[0].hub.index()] = market::HourlySeries(whole, bos);
  prices.rt[clusters_[1].hub.index()] = market::HourlySeries(whole, chi);

  EngineConfig cfg;
  cfg.energy = energy::fully_proportional_params();
  cfg.enforce_p95 = false;

  PriceAwareConfig rcfg;
  rcfg.distance_threshold = Km{5000.0};

  // Demand from state A only; both clusters reachable.
  const Period window{101, 102};
  ConstWorkload workload(window, {15000.0, 0.0}, 1);

  cfg.delay_hours = 1;
  SimulationEngine engine_stale(clusters_, prices, *distances_, cfg);
  PriceAwareRouter router1(*distances_, 2, rcfg);
  const RunResult stale = engine_stale.run(workload, router1);
  // Stale prices say Boston is cheap -> traffic in Boston, billed at 100.
  EXPECT_GT(stale.cluster_energy[0], 0.0);
  EXPECT_DOUBLE_EQ(stale.cluster_energy[1], 0.0);
  EXPECT_NEAR(stale.total_cost.value(), stale.total_energy.value() * 100.0,
              test::kSumTol);

  cfg.delay_hours = 0;
  SimulationEngine engine_fresh(clusters_, prices, *distances_, cfg);
  PriceAwareRouter router2(*distances_, 2, rcfg);
  const RunResult fresh = engine_fresh.run(workload, router2);
  // Fresh prices route to Chicago, billed at 10.
  EXPECT_GT(fresh.cluster_energy[1], 0.0);
  EXPECT_DOUBLE_EQ(fresh.cluster_energy[0], 0.0);
  EXPECT_LT(fresh.total_cost.value(), stale.total_cost.value());
}

TEST_F(EngineTest, P95BudgetsBoundRealizedPercentile) {
  const Period window{100, 100 + 240};
  const market::PriceSet prices = const_prices(100, 240, 90.0, 10.0);
  EngineConfig cfg;
  cfg.energy = energy::fully_proportional_params();
  cfg.enforce_p95 = true;
  SimulationEngine engine(clusters_, prices, *distances_, cfg);
  // Heavy demand from Boston; Chicago is cheap but p95-capped at 20000.
  ConstWorkload workload(window, {25000.0, 0.0}, 1);
  PriceAwareConfig rcfg;
  rcfg.distance_threshold = Km{5000.0};
  PriceAwareRouter router(*distances_, 2, rcfg);
  const RunResult r = engine.run(workload, router);
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    EXPECT_LE(r.realized_p95[c], clusters_[c].p95_reference.value() + test::kSumTol)
        << "cluster " << c;
  }
}

TEST_F(EngineTest, HourlyRecordingSumsToTotals) {
  const Period window{100, 110};
  const market::PriceSet prices = const_prices(100, 10, 50.0, 60.0);
  EngineConfig cfg;
  cfg.energy = energy::google_params();
  cfg.enforce_p95 = false;
  SimulationEngine engine(clusters_, prices, *distances_, cfg);
  ConstWorkload workload(window, {10000.0, 5000.0}, 12);
  ClosestRouter router(*distances_, 2);
  HourlyEnergyRecorder recorder;
  StepObserver* observers[] = {&recorder};
  const RunResult r = engine.run(workload, router, observers);
  ASSERT_EQ(r.hourly_energy.hours(), 10u);
  ASSERT_EQ(r.hourly_energy.clusters(), 2u);
  double sum = 0.0;
  for (double v : r.hourly_energy.data()) sum += v;
  EXPECT_NEAR(sum, r.total_energy.value(), test::kNumericTol);
  // The recorder's own buffer matches what it published.
  EXPECT_EQ(recorder.energy().data().size(), r.hourly_energy.data().size());
  EXPECT_DOUBLE_EQ(recorder.energy().at(0, 0), r.hourly_energy.at(0, 0));
}

TEST_F(EngineTest, CapacityFactorShedsServersAndEnergy) {
  const Period window{100, 110};
  const market::PriceSet prices = const_prices(100, 10, 50.0, 50.0);
  EngineConfig cfg;
  cfg.energy = energy::google_params();
  cfg.enforce_p95 = false;
  ConstWorkload workload(window, {1000.0, 1000.0}, 1);
  ClosestRouter router(*distances_, 2);

  SimulationEngine normal(clusters_, prices, *distances_, cfg);
  const RunResult base = normal.run(workload, router);

  cfg.capacity_factor = [](std::size_t cluster, HourIndex) {
    return cluster == 0 ? 0.25 : 1.0;
  };
  SimulationEngine shed_engine(clusters_, prices, *distances_, cfg);
  ClosestRouter router2(*distances_, 2);
  const RunResult shed = shed_engine.run(workload, router2);
  // Cluster 0 runs a quarter of its servers: much less energy there.
  EXPECT_LT(shed.cluster_energy[0], 0.5 * base.cluster_energy[0]);
}

TEST_F(EngineTest, SecondaryMetering) {
  const Period window{100, 105};
  const market::PriceSet prices = const_prices(100, 5, 50.0, 50.0);
  const market::PriceSet carbon = const_prices(100, 5, 700.0, 300.0);
  EngineConfig cfg;
  cfg.energy = energy::google_params();
  cfg.enforce_p95 = false;
  SimulationEngine engine(clusters_, prices, *distances_, cfg);
  ConstWorkload workload(window, {1000.0, 1000.0}, 1);
  ClosestRouter router(*distances_, 2);
  SecondaryMeter meter(carbon);
  StepObserver* observers[] = {&meter};
  const RunResult r = engine.run(workload, router, observers);
  EXPECT_NEAR(meter.total(),
              700.0 * r.cluster_energy[0] + 300.0 * r.cluster_energy[1], test::kSumTol);
  EXPECT_NEAR(meter.per_cluster()[0], 700.0 * r.cluster_energy[0], test::kNumericTol);
}

TEST_F(EngineTest, RejectsUncoveredPricePeriod) {
  const market::PriceSet prices = const_prices(100, 4, 50.0, 50.0);
  EngineConfig cfg;
  cfg.delay_hours = 10;  // needs prices back to hour 90
  cfg.enforce_p95 = false;
  SimulationEngine engine(clusters_, prices, *distances_, cfg);
  ConstWorkload workload(Period{100, 104}, {1.0, 1.0}, 1);
  ClosestRouter router(*distances_, 2);
  EXPECT_THROW((void)engine.run(workload, router), std::invalid_argument);
}

TEST_F(EngineTest, RejectsPriceSetEndingBeforeTheWorkload) {
  // Regression: the pre-run guard used to check only the *start* of the
  // priced window. A price set covering the first hours but ending
  // early sailed through, fired on_run_begin, and then blew up inside
  // PriceSeries::at mid-run - with on_run_end never called, leaving
  // stateful observers half-open. The guard must reject the whole
  // priced window before any observer is touched.
  const market::PriceSet prices = const_prices(100, 4, 50.0, 50.0);  // [98, 104)
  EngineConfig cfg;
  cfg.delay_hours = 1;
  cfg.enforce_p95 = false;
  SimulationEngine engine(clusters_, prices, *distances_, cfg);
  ConstWorkload workload(Period{100, 106}, {1.0, 1.0}, 1);  // needs [99, 106)
  ClosestRouter router(*distances_, 2);
  BeginProbe probe;
  StepObserver* observers[] = {&probe};

  try {
    (void)engine.run(workload, router, observers);
    FAIL() << "uncovered tail of the priced window must be rejected";
  } catch (const std::invalid_argument& e) {
    // The message names both windows so the mismatch is debuggable.
    const std::string what = e.what();
    EXPECT_NE(what.find("[98, 104)"), std::string::npos) << what;
    EXPECT_NE(what.find("[99, 106)"), std::string::npos) << what;
  }
  EXPECT_EQ(probe.begins, 0);
  EXPECT_EQ(probe.ends, 0);
}

TEST_F(EngineTest, RejectsSeriesWhoseRateDisagreesWithTheSet) {
  // Steps read native samples at the set's declared rate, so a series
  // sampled at another rate is rejected before any observer fires.
  // Otherwise a set declaring five-minute prices over hourly series
  // throws out_of_range on its second step, after on_run_begin and with
  // on_run_end never called, and a set declaring hourly prices over
  // five-minute series bills the wrong samples silently.
  market::PriceSet declares_finer = const_prices(100, 4, 50.0, 60.0);
  declares_finer.samples_per_hour = 12;
  market::PriceSet declares_hourly = const_prices(100, 4, 50.0, 60.0, 12);
  declares_hourly.samples_per_hour = 1;
  EngineConfig cfg;
  cfg.enforce_p95 = false;
  for (const market::PriceSet* prices : {&declares_finer, &declares_hourly}) {
    SimulationEngine engine(clusters_, *prices, *distances_, cfg);
    ConstWorkload workload(Period{100, 104}, {1.0, 1.0}, 12);
    ClosestRouter router(*distances_, 2);
    BeginProbe probe;
    StepObserver* observers[] = {&probe};
    EXPECT_THROW((void)engine.run(workload, router, observers),
                 std::invalid_argument)
        << "declared " << prices->samples_per_hour;
    EXPECT_EQ(probe.begins, 0);
    EXPECT_EQ(probe.ends, 0);
  }
}

TEST_F(EngineTest, RejectsCadencesThatDoNotNest) {
  // One predicate holds the rule step_rows relies on: both cadences at
  // least one per hour, one dividing the other.
  struct Case {
    int steps_per_hour;
    int rows_per_hour;
    bool nest;
  };
  const Case cases[] = {
      {12, 1, true},
      {1, 12, true},
      {12, 4, true},
      {4, 12, true},
      {12, 12, true},
      {1, 1, true},
      {12, 5, false},
      {5, 12, false},
      {0, 1, false},
      {1, 0, false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(cadences_nest(c.steps_per_hour, c.rows_per_hour), c.nest)
        << c.steps_per_hour << "/" << c.rows_per_hour;
  }

  // The engine and the storage controller both apply it to a 5-minute
  // workload over a market settling five times an hour.
  const market::PriceSet prices = const_prices(100, 4, 50.0, 60.0, 5);
  EngineConfig cfg;
  cfg.enforce_p95 = false;
  SimulationEngine engine(clusters_, prices, *distances_, cfg);
  ConstWorkload workload(Period{100, 104}, {1.0, 1.0}, 12);
  ClosestRouter router(*distances_, 2);
  BeginProbe probe;
  StepObserver* observers[] = {&probe};
  EXPECT_THROW((void)engine.begin(workload, router, observers),
               std::invalid_argument);
  EXPECT_EQ(probe.begins, 0);

  storage::StorageController controller(StorageSpec{});
  const RunInfo info{Period{100, 104}, 12, 5};
  EXPECT_THROW(controller.on_run_begin(info, clusters_), std::invalid_argument);
}

TEST_F(EngineTest, ConstructorValidation) {
  const market::PriceSet prices = const_prices(100, 4, 50.0, 50.0);
  EngineConfig cfg;
  EXPECT_THROW(SimulationEngine({}, prices, *distances_, cfg),
               std::invalid_argument);
  cfg.delay_hours = -1;
  EXPECT_THROW(SimulationEngine(clusters_, prices, *distances_, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace cebis::core
