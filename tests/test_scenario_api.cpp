// The ScenarioSpec / RouterRegistry / StepObserver experiment API:
// registry round-trips for all five built-in routers, observer ordering
// and composition (carbon metering + DR hourly recording stacked on one
// run), and the batched-sweep contract - run_scenarios must produce
// byte-identical results to per-call runs while constructing the
// engine/workload only once per distinct scenario key.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/observers.h"
#include "core/router_registry.h"
#include "storage/battery.h"
#include "test_support.h"

namespace cebis::core {
namespace {

class ScenarioApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = new Fixture(Fixture::make(2009)); }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static Fixture* fixture_;
};

Fixture* ScenarioApiTest::fixture_ = nullptr;

// --- registry ---------------------------------------------------------------

TEST_F(ScenarioApiTest, RegistryListsTheFiveBuiltins) {
  const RouterRegistry& reg = RouterRegistry::instance();
  for (const char* name : {"baseline", "price-aware", "closest",
                           "static-cheapest", "joint-objective"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("no-such-router"));
}

TEST_F(ScenarioApiTest, RegistryRoundTripConstructsEveryRouter) {
  // Registry name -> the router's self-reported name.
  const std::pair<const char*, const char*> expected[] = {
      {"baseline", "akamai-like"},
      {"price-aware", "price-aware"},
      {"closest", "closest"},
      {"static-cheapest", "static-cheapest"},
      {"joint-objective", "joint-objective"},
  };
  for (const auto& [registered, router_name] : expected) {
    ScenarioSpec spec;
    spec.router = registered;
    const std::unique_ptr<Router> router =
        RouterRegistry::instance().at(registered).make(*fixture_, spec);
    ASSERT_NE(router, nullptr) << registered;
    EXPECT_EQ(router->name(), router_name);
  }
}

TEST_F(ScenarioApiTest, RegistryPropagatesRouterConfigs) {
  ScenarioSpec spec;
  spec.router = "price-aware";
  spec.config = PriceAwareConfig{.distance_threshold = Km{777.0},
                                 .price_threshold = UsdPerMwh{3.5}};
  const auto router =
      RouterRegistry::instance().at("price-aware").make(*fixture_, spec);
  const auto* pa = dynamic_cast<PriceAwareRouter*>(router.get());
  ASSERT_NE(pa, nullptr);
  EXPECT_DOUBLE_EQ(pa->config().distance_threshold.value(), 777.0);
  EXPECT_DOUBLE_EQ(pa->config().price_threshold.value(), 3.5);

  spec.router = "joint-objective";
  spec.config = JointObjectiveConfig{.lambda_usd_per_mwh_km = 0.123};
  const auto joint =
      RouterRegistry::instance().at("joint-objective").make(*fixture_, spec);
  const auto* jr = dynamic_cast<JointObjectiveRouter*>(joint.get());
  ASSERT_NE(jr, nullptr);
  EXPECT_DOUBLE_EQ(jr->config().lambda_usd_per_mwh_km, 0.123);
}

TEST_F(ScenarioApiTest, RegistryRejectsBadInput) {
  EXPECT_THROW((void)RouterRegistry::instance().at("no-such-router"),
               std::invalid_argument);

  // Config variant mismatches are hard errors, not silent fallbacks.
  ScenarioSpec spec;
  spec.router = "closest";
  spec.config = PriceAwareConfig{};
  EXPECT_THROW((void)run_scenario(*fixture_, spec), std::invalid_argument);
  spec.router = "price-aware";
  spec.config = JointObjectiveConfig{};
  EXPECT_THROW((void)run_scenario(*fixture_, spec), std::invalid_argument);

  RouterRegistry local;
  EXPECT_THROW(local.add("", RouterEntry{}), std::invalid_argument);
  EXPECT_THROW(local.add("nameless", RouterEntry{}), std::invalid_argument);
  local.add("dup", RouterEntry{.make = [](const Fixture&, const ScenarioSpec&)
                                   -> std::unique_ptr<Router> {
                     return nullptr;
                   }});
  EXPECT_THROW(local.add("dup", RouterEntry{.make = [](const Fixture&,
                                                       const ScenarioSpec&)
                                                -> std::unique_ptr<Router> {
                           return nullptr;
                         }}),
               std::invalid_argument);
}

TEST_F(ScenarioApiTest, CanonicalRouterSpecsRunConsistently) {
  // The five configurations the deleted fixed-function API used to
  // cover (baseline / price-aware / closest / static-cheapest +
  // price-aware savings), expressed as pure ScenarioSpecs. Each must
  // run individually AND come out byte-identical from a batched
  // run_scenarios over the same specs - the batch path shares the lazily
  // materialized price history, so any divergence means hidden state.
  const energy::EnergyModelParams energy = energy::google_params();
  std::vector<ScenarioSpec> specs;
  specs.push_back({.router = "baseline",
                   .energy = energy,
                   .workload = WorkloadKind::kTrace24Day,
                   .enforce_p95 = true});
  specs.push_back({.router = "price-aware",
                   .config = PriceAwareConfig{.distance_threshold = Km{1000.0}},
                   .energy = energy,
                   .workload = WorkloadKind::kTrace24Day,
                   .enforce_p95 = true});
  specs.push_back({.router = "closest",
                   .energy = energy,
                   .workload = WorkloadKind::kTrace24Day,
                   .enforce_p95 = true});
  specs.push_back({.router = "static-cheapest",
                   .energy = energy,
                   .workload = WorkloadKind::kTrace24Day,
                   .enforce_p95 = true});

  const std::vector<RunResult> batched = run_scenarios(*fixture_, specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult single = run_scenario(*fixture_, specs[i]);
    EXPECT_EQ(single.total_cost.value(), batched[i].total_cost.value())
        << specs[i].router;
    EXPECT_EQ(single.total_energy.value(), batched[i].total_energy.value())
        << specs[i].router;
    EXPECT_EQ(single.mean_distance_km, batched[i].mean_distance_km)
        << specs[i].router;
    EXPECT_GT(single.total_cost.value(), 0.0) << specs[i].router;
  }

  // The price optimizer must beat baseline on cost within the same
  // energy model, and scenario_savings must agree with the two
  // individual runs it compares.
  const SavingsReport savings = scenario_savings(*fixture_, specs[1]);
  EXPECT_GT(savings.savings_percent, 0.0);
  EXPECT_LT(batched[1].total_cost.value(), batched[0].total_cost.value());
  EXPECT_EQ(savings.normalized_cost,
            batched[1].total_cost.value() / batched[0].total_cost.value());
}

// --- batched sweeps ---------------------------------------------------------

TEST_F(ScenarioApiTest, BatchedSweepIsByteIdenticalToSoloRuns) {
  // A fig18-style threshold sweep: baseline + static relocation + the
  // price optimizer across thresholds, with and without 95/5.
  std::vector<ScenarioSpec> specs;
  const ScenarioSpec base{
      .router = "baseline",
      .energy = energy::optimistic_future_params(),
      .workload = WorkloadKind::kTrace24Day,
  };
  specs.push_back(base);
  {
    ScenarioSpec st = base;
    st.router = "static-cheapest";
    specs.push_back(st);
  }
  for (const double km : {0.0, 1500.0, 2500.0}) {
    for (const bool follow : {true, false}) {
      ScenarioSpec s = base;
      s.router = "price-aware";
      s.config = PriceAwareConfig{.distance_threshold = Km{km}};
      s.enforce_p95 = follow;
      specs.push_back(s);
    }
  }

  const std::vector<RunResult> batched = run_scenarios(*fixture_, specs);
  ASSERT_EQ(batched.size(), specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult single = run_scenario(*fixture_, specs[i]);
    EXPECT_EQ(batched[i].total_cost.value(), single.total_cost.value()) << i;
    EXPECT_EQ(batched[i].total_energy.value(), single.total_energy.value()) << i;
    EXPECT_EQ(batched[i].mean_distance_km, single.mean_distance_km) << i;
    EXPECT_EQ(batched[i].p99_distance_km, single.p99_distance_km) << i;
    EXPECT_EQ(batched[i].hit_hours, single.hit_hours) << i;
    EXPECT_EQ(batched[i].overflow_steps, single.overflow_steps) << i;
    ASSERT_EQ(batched[i].cluster_cost.size(), single.cluster_cost.size());
    for (std::size_t c = 0; c < single.cluster_cost.size(); ++c) {
      EXPECT_EQ(batched[i].cluster_cost[c], single.cluster_cost[c]) << i;
      EXPECT_EQ(batched[i].cluster_energy[c], single.cluster_energy[c]) << i;
      EXPECT_EQ(batched[i].realized_p95[c], single.realized_p95[c]) << i;
    }
  }
}

TEST_F(ScenarioApiTest, HookedScenariosMatchUnhookedRuns) {
  ScenarioSpec plain{
      .router = "price-aware",
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
      .enforce_p95 = false,
  };
  ScenarioSpec hooked = plain;
  hooked.capacity_factor = [](std::size_t, HourIndex) { return 1.0; };

  const ScenarioSpec specs[] = {plain, hooked, plain};
  const auto runs = run_scenarios(*fixture_, specs);
  // The hook is a unit factor, so results agree, and the hooked cell
  // leaves the plain cell after it untouched.
  EXPECT_EQ(runs[0].total_cost.value(), runs[1].total_cost.value());
  EXPECT_EQ(runs[0].total_cost.value(), runs[2].total_cost.value());
}

// --- parallel sweeps --------------------------------------------------------

/// Field-by-field bitwise comparison of two runs, storage included.
void expect_bitwise_equal(const RunResult& a, const RunResult& b,
                          std::size_t index) {
  EXPECT_EQ(a.total_cost.value(), b.total_cost.value()) << index;
  EXPECT_EQ(a.total_energy.value(), b.total_energy.value()) << index;
  EXPECT_EQ(a.mean_distance_km, b.mean_distance_km) << index;
  EXPECT_EQ(a.p99_distance_km, b.p99_distance_km) << index;
  EXPECT_EQ(a.hit_hours, b.hit_hours) << index;
  EXPECT_EQ(a.overflow_steps, b.overflow_steps) << index;
  ASSERT_EQ(a.cluster_cost.size(), b.cluster_cost.size()) << index;
  for (std::size_t c = 0; c < a.cluster_cost.size(); ++c) {
    EXPECT_EQ(a.cluster_cost[c], b.cluster_cost[c]) << index;
    EXPECT_EQ(a.cluster_energy[c], b.cluster_energy[c]) << index;
    EXPECT_EQ(a.realized_p95[c], b.realized_p95[c]) << index;
  }
  ASSERT_EQ(a.hourly_energy.data().size(), b.hourly_energy.data().size());
  for (std::size_t i = 0; i < a.hourly_energy.data().size(); ++i) {
    EXPECT_EQ(a.hourly_energy.data()[i], b.hourly_energy.data()[i]) << index;
  }
  EXPECT_EQ(a.storage.engaged, b.storage.engaged) << index;
  EXPECT_EQ(a.storage.raw_energy.value(), b.storage.raw_energy.value()) << index;
  EXPECT_EQ(a.storage.raw_demand.value(), b.storage.raw_demand.value()) << index;
  EXPECT_EQ(a.storage.net_energy.value(), b.storage.net_energy.value()) << index;
  EXPECT_EQ(a.storage.net_demand.value(), b.storage.net_demand.value()) << index;
  EXPECT_EQ(a.storage.charged_mwh, b.storage.charged_mwh) << index;
  EXPECT_EQ(a.storage.discharged_mwh, b.storage.discharged_mwh) << index;
  EXPECT_EQ(a.storage.final_soc_mwh, b.storage.final_soc_mwh) << index;
}

TEST_F(ScenarioApiTest, ParallelSweepMatchesSerialByteForByte) {
  // The determinism contract of SweepOptions::threads: a mixed sweep -
  // thresholds with and without 95/5, an engine hook, a storage cell, a
  // sub-hourly market and an observer-carrying (pinned) cell - must produce
  // bitwise-identical results at threads = 1 and threads = 4.
  std::vector<ScenarioSpec> specs;
  const ScenarioSpec base{
      .router = "baseline",
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
  };
  specs.push_back(base);
  {
    ScenarioSpec st = base;
    st.router = "static-cheapest";
    specs.push_back(st);
  }
  for (const double km : {0.0, 1500.0}) {
    for (const bool follow : {true, false}) {
      ScenarioSpec s = base;
      s.router = "price-aware";
      s.config = PriceAwareConfig{.distance_threshold = Km{km}};
      s.enforce_p95 = follow;
      specs.push_back(s);
    }
  }
  {
    ScenarioSpec joint = base;
    joint.router = "joint-objective";
    joint.config = JointObjectiveConfig{.lambda_usd_per_mwh_km = 0.01};
    specs.push_back(joint);
  }
  {
    ScenarioSpec st = base;
    st.router = "price-aware";
    st.config = PriceAwareConfig{.distance_threshold = Km{1500.0}};
    StorageSpec storage;
    storage.battery = storage::battery_for_mean_load(0.2, 4.0);
    storage.policy = "lyapunov";
    storage.tariff.demand_usd_per_kw_month = Usd{12.0};
    st.storage = storage;
    specs.push_back(st);
  }
  {
    ScenarioSpec sub = base;
    sub.router = "price-aware";
    sub.config = PriceAwareConfig{.distance_threshold = Km{1500.0}};
    sub.market_interval_minutes = 5;
    specs.push_back(sub);
  }
  {
    ScenarioSpec hooked = base;
    hooked.router = "price-aware";
    hooked.config = PriceAwareConfig{.distance_threshold = Km{1500.0}};
    hooked.capacity_factor = [](std::size_t, HourIndex) { return 1.0; };
    specs.push_back(hooked);
  }
  // The observer-carrying cell gets its own recorder per sweep so the
  // two sweeps cannot share mutable caller state.
  HourlyEnergyRecorder serial_recorder;
  HourlyEnergyRecorder parallel_recorder;
  {
    ScenarioSpec observed = base;
    observed.router = "price-aware";
    observed.config = PriceAwareConfig{.distance_threshold = Km{1500.0}};
    specs.push_back(observed);
  }

  std::vector<ScenarioSpec> serial_specs = specs;
  serial_specs.back().observers = {&serial_recorder};
  std::vector<ScenarioSpec> parallel_specs = specs;
  parallel_specs.back().observers = {&parallel_recorder};

  SweepStats serial_stats;
  const std::vector<RunResult> serial = run_scenarios(
      *fixture_, serial_specs, SweepOptions{.threads = 1}, &serial_stats);
  EXPECT_EQ(serial_stats.threads_used, 1);

  SweepStats parallel_stats;
  const std::vector<RunResult> parallel = run_scenarios(
      *fixture_, parallel_specs, SweepOptions{.threads = 4}, &parallel_stats);
  EXPECT_EQ(parallel_stats.threads_used, 4);
  // The hooked and the observer-carrying cells are pinned to the
  // calling thread; everything else is eligible for the pool.
  EXPECT_EQ(parallel_stats.serial_cells, 2u);
  EXPECT_EQ(parallel_stats.parallel_cells, specs.size() - 2);

  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_bitwise_equal(serial[i], parallel[i], i);
  }
  ASSERT_EQ(serial_recorder.energy().data().size(),
            parallel_recorder.energy().data().size());
  for (std::size_t i = 0; i < serial_recorder.energy().data().size(); ++i) {
    EXPECT_EQ(serial_recorder.energy().data()[i],
              parallel_recorder.energy().data()[i]);
  }
}

/// Router whose every route() call throws - a mid-run failure inside a
/// worker thread.
class ThrowingRouter final : public Router {
 public:
  void route(const RoutingContext&, Allocation&) override {
    throw std::runtime_error("ThrowingRouter: scripted mid-run failure");
  }
  [[nodiscard]] std::string_view name() const override {
    return "test-throwing";
  }
};

TEST_F(ScenarioApiTest, ThrowingCellPropagatesWithoutDeadlock) {
  RouterRegistry& reg = RouterRegistry::instance();
  if (!reg.contains("test-throwing")) {
    reg.add("test-throwing",
            RouterEntry{.make = [](const Fixture&, const ScenarioSpec&)
                            -> std::unique_ptr<Router> {
              return std::make_unique<ThrowingRouter>();
            }});
  }

  std::vector<ScenarioSpec> specs;
  const ScenarioSpec good{
      .router = "baseline",
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
  };
  for (int i = 0; i < 4; ++i) specs.push_back(good);
  specs[2].router = "test-throwing";

  // The cell's exception must surface unchanged from both schedules -
  // and the parallel one must join its workers rather than deadlock or
  // terminate.
  for (const int threads : {1, 4}) {
    try {
      (void)run_scenarios(*fixture_, specs, SweepOptions{.threads = threads});
      FAIL() << "sweep with a throwing cell must throw (threads="
             << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string_view(e.what()).find("scripted mid-run failure"),
                std::string_view::npos);
    }
  }

  // The failure is confined to that sweep: a fresh parallel sweep runs.
  specs[2].router = "baseline";
  SweepStats stats;
  const std::vector<RunResult> runs =
      run_scenarios(*fixture_, specs, SweepOptions{.threads = 4}, &stats);
  ASSERT_EQ(runs.size(), specs.size());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].total_cost.value(), runs[0].total_cost.value());
  }
}

// --- observers --------------------------------------------------------------

/// Probe that logs every hook invocation into a shared journal.
class ProbeObserver final : public StepObserver {
 public:
  ProbeObserver(int id, std::vector<int>& journal, std::int64_t& steps)
      : id_(id), journal_(journal), steps_(steps) {}

  void on_run_begin(const RunInfo&, std::span<const Cluster>) override {
    journal_.push_back(id_ * 100);
  }
  void on_step(const StepView& view) override {
    ++steps_;
    if (view.step == 0) journal_.push_back(id_ * 100 + 1);
  }
  void on_run_end(RunResult&) override { journal_.push_back(id_ * 100 + 2); }

 private:
  int id_;
  std::vector<int>& journal_;
  std::int64_t& steps_;
};

TEST_F(ScenarioApiTest, ObserversRunInAttachmentOrder) {
  std::vector<int> journal;
  std::int64_t steps1 = 0;
  std::int64_t steps2 = 0;
  ProbeObserver first(1, journal, steps1);
  ProbeObserver second(2, journal, steps2);

  ScenarioSpec spec{
      .router = "closest",
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
      .enforce_p95 = false,
  };
  spec.observers = {&first, &second};
  (void)run_scenario(*fixture_, spec);

  // begin(1), begin(2), first step(1), first step(2), ..., end(1), end(2).
  ASSERT_GE(journal.size(), 6u);
  EXPECT_EQ(journal[0], 100);
  EXPECT_EQ(journal[1], 200);
  EXPECT_EQ(journal[2], 101);
  EXPECT_EQ(journal[3], 201);
  EXPECT_EQ(journal[journal.size() - 2], 102);
  EXPECT_EQ(journal.back(), 202);
  // Every step reached both observers.
  EXPECT_EQ(steps1, trace_period().hours() * 12);
  EXPECT_EQ(steps1, steps2);
}

TEST_F(ScenarioApiTest, BadStorageSpecFailsBeforeAnyCellRuns) {
  // plan_run builds every cell's storage controller in the serial plan
  // phase, so a StorageSpec it rejects fails the sweep before the
  // observed cell ahead of it (pinned, so it would run first) begins.
  std::vector<int> journal;
  std::int64_t steps = 0;
  ProbeObserver probe(1, journal, steps);
  ScenarioSpec observed{
      .router = "price-aware",
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
  };
  observed.observers = {&probe};
  ScenarioSpec bad = observed;
  bad.observers.clear();
  bad.storage = StorageSpec{};
  bad.storage->policy = "no-such-policy";
  const ScenarioSpec specs[] = {observed, bad};

  EXPECT_THROW(
      (void)run_scenarios(*fixture_, specs, SweepOptions{.threads = 4}),
      std::invalid_argument);
  EXPECT_TRUE(journal.empty()) << "on_run_begin reached the observed cell";
  EXPECT_EQ(steps, 0);
}

TEST_F(ScenarioApiTest, StackedObserversMatchSoloRuns) {
  // Carbon-style secondary metering and DR-style hourly recording
  // composed on ONE run must reproduce what each observer sees alone.
  const market::PriceSet& secondary_series = fixture_->prices();

  const ScenarioSpec base{
      .router = "price-aware",
      .config = PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
      .enforce_p95 = false,
  };

  SecondaryMeter solo_meter(secondary_series);
  ScenarioSpec meter_spec = base;
  meter_spec.observers = {&solo_meter};
  (void)run_scenario(*fixture_, meter_spec);

  HourlyEnergyRecorder solo_recorder;
  ScenarioSpec recorder_spec = base;
  recorder_spec.observers = {&solo_recorder};
  (void)run_scenario(*fixture_, recorder_spec);

  SecondaryMeter stacked_meter(secondary_series);
  HourlyEnergyRecorder stacked_recorder;
  ScenarioSpec stacked_spec = base;
  stacked_spec.observers = {&stacked_meter, &stacked_recorder};
  const RunResult stacked = run_scenario(*fixture_, stacked_spec);

  EXPECT_EQ(stacked_meter.total(), solo_meter.total());
  ASSERT_EQ(stacked_recorder.energy().data().size(),
            solo_recorder.energy().data().size());
  for (std::size_t i = 0; i < solo_recorder.energy().data().size(); ++i) {
    EXPECT_EQ(stacked_recorder.energy().data()[i],
              solo_recorder.energy().data()[i]);
  }

  // Metering the billing series itself reproduces the engine's own
  // accounting, and the recorder's rows sum to the energy totals.
  EXPECT_NEAR(stacked_meter.total(), stacked.total_cost.value(), test::kSumTol);
  double recorded = 0.0;
  for (double v : stacked.hourly_energy.data()) recorded += v;
  EXPECT_NEAR(recorded, stacked.total_energy.value(), test::kSumTol);
}

TEST_F(ScenarioApiTest, HourlyEnergyLayout) {
  HourlyEnergy e(3, 1, 2);
  EXPECT_EQ(e.hours(), 3u);
  EXPECT_EQ(e.clusters(), 2u);
  e.at(1, 0) = 4.0;
  e.at(1, 1) = 5.0;
  EXPECT_DOUBLE_EQ(e.row(1)[0], 4.0);
  EXPECT_DOUBLE_EQ(e.row(1)[1], 5.0);
  EXPECT_DOUBLE_EQ(e.at(0, 0), 0.0);
  EXPECT_EQ(e.data().size(), 6u);
  EXPECT_TRUE(HourlyEnergy{}.empty());
}

}  // namespace
}  // namespace cebis::core
