// The service mode's headline contract: a live tick-driven session, the
// plain batch run over the same inputs, and a replay of the recorded
// event log must produce byte-identical RunResults. Because
// SimulationEngine::Session IS the batch loop, any drift here means a
// live/batch divergence (observer order, seal arithmetic, assembler
// fidelity) - the suite pins every field with bit_cast comparison via
// service::diff_run_results.
//
// Runs in every CI leg including TSan (short window, single-threaded).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/observers.h"
#include "core/router_registry.h"
#include "market/tick_assembler.h"
#include "service/event_log.h"
#include "service/live_engine.h"
#include "service/replay.h"
#include "storage/storage_controller.h"
#include "test_support.h"

namespace cebis::service {
namespace {

class ReplayEqualsLive : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new core::Fixture(core::Fixture::make(test::kTestSeed));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static core::Fixture* fixture_;
};

core::Fixture* ReplayEqualsLive::fixture_ = nullptr;

/// The live session's window: the first `hours` of the fixture trace
/// (short - this suite runs under TSan).
Period window_of(const core::Fixture& fixture, std::int64_t hours) {
  const Period trace = fixture.trace.period();
  return Period{trace.begin, trace.begin + hours};
}

struct LiveRun {
  core::RunResult result;
  std::vector<std::vector<double>> demand;  ///< the rows fed to advance()
};

/// Drives a full live session: settlement ticks in interval order from
/// the fixture's own generated market, demand from the fixture trace,
/// every step advanced as soon as its price intervals seal.
LiveRun drive_live(const core::Fixture& fixture, const LiveConfig& config,
                   EventLogWriter* log) {
  LiveEngine live(fixture, config, log);

  const int sph = config.samples_per_hour;
  const Period priced = core::priced_window(
      config.period, config.delay_hours, config.delay_steps, sph);
  const market::PriceSet& feed = fixture.prices_covering(priced, sph);

  std::vector<HubId> hubs;
  for (const core::Cluster& c : fixture.clusters) {
    bool seen = false;
    for (const HubId h : hubs) seen = seen || h.index() == c.hub.index();
    if (!seen) hubs.push_back(c.hub);
  }

  const core::TraceWorkload demand_feed(fixture.trace, fixture.allocation);
  LiveRun run;
  std::vector<double> demand(demand_feed.state_count(), 0.0);
  for (std::int64_t interval = priced.begin * sph;
       interval < config.period.end * sph; ++interval) {
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : hubs) {
      live.on_price_tick(hub, interval, feed.rt_at(hub, hour, sub).value());
    }
    while (!live.done() && live.needed_end() <= live.sealed_end()) {
      demand_feed.demand(live.steps_done(), demand);
      run.demand.push_back(demand);
      live.advance(demand);
    }
  }
  EXPECT_TRUE(live.done());
  run.result = live.finish();
  return run;
}

/// The plain batch run over the fixture's own PriceSet and the exact
/// demand rows the live session consumed - constructed through the same
/// registry factories the LiveEngine used, but reading the fixture
/// prices directly (no TickAssembler). Byte-equality against the live
/// result proves both the Session seam and the assembler's fidelity.
core::RunResult batch_over_fixture(const core::Fixture& fixture,
                                   const LiveConfig& config,
                                   const std::vector<std::vector<double>>& rows) {
  core::ScenarioSpec spec;
  spec.router = config.router;
  spec.config = config.router_config;
  spec.energy = config.energy;
  spec.enforce_p95 = config.enforce_p95;
  spec.delay_hours = config.delay_hours;
  spec.delay_steps = config.delay_steps;
  spec.market_interval_minutes = 60 / config.samples_per_hour;

  const core::RouterEntry& entry =
      core::RouterRegistry::instance().at(spec.router);
  std::vector<core::Cluster> clusters =
      entry.clusters ? entry.clusters(fixture, spec) : fixture.clusters;

  const int sph = config.samples_per_hour;
  const int margin = spec.delay_steps > 0
                         ? (spec.delay_steps + sph - 1) / sph
                         : spec.delay_hours;
  const Period priced{config.period.begin - margin, config.period.end};

  core::EngineConfig cfg;
  cfg.energy = spec.energy;
  cfg.delay_hours = spec.delay_hours;
  cfg.delay_steps = spec.delay_steps;
  cfg.enforce_p95 = spec.enforce_p95 && !entry.forces_relaxed_p95;

  PushWorkload workload(config.period, config.steps_per_hour,
                        fixture.trace.state_count());
  for (const std::vector<double>& row : rows) workload.push(row);

  const core::SimulationEngine engine(std::move(clusters),
                                      fixture.prices_covering(priced, sph),
                                      fixture.distances, cfg);
  const std::unique_ptr<core::Router> router = entry.make(fixture, spec);

  std::unique_ptr<core::HourlyEnergyRecorder> recorder;
  std::unique_ptr<storage::StorageController> controller;
  std::vector<core::StepObserver*> observers;
  if (config.record_hourly_energy) {
    recorder =
        std::make_unique<core::HourlyEnergyRecorder>(/*native_intervals=*/true);
    observers.push_back(recorder.get());
  }
  if (config.storage.has_value()) {
    controller = std::make_unique<storage::StorageController>(*config.storage);
    observers.push_back(controller.get());
  }
  return engine.run(workload, *router, observers);
}

// --- the contract -----------------------------------------------------------

TEST_F(ReplayEqualsLive, LiveEqualsBatchEqualsReplay) {
  test::TempFile log_file("replay_equals_live_basic.eventlog");
  LiveConfig config;
  config.router = "price-aware";
  config.period = window_of(*fixture_, 6);
  config.steps_per_hour = 12;
  config.samples_per_hour = 12;
  config.delay_hours = 1;
  config.shadow_baseline = true;  // telemetry must not perturb the run

  LiveRun live;
  {
    EventLogWriter log(log_file.path());
    live = drive_live(*fixture_, config, &log);
    log.close();
  }
  ASSERT_EQ(live.demand.size(), 6u * 12u);

  // Leg 1: live == batch over the fixture's own prices (Session seam
  // and TickAssembler fidelity).
  const core::RunResult batch =
      batch_over_fixture(*fixture_, config, live.demand);
  EXPECT_EQ(diff_run_results(live.result, batch), "");

  // Leg 2: live == replay of the recorded log (the full round trip
  // through the binary format).
  const core::RunResult replayed = replay_file(*fixture_, log_file.path());
  EXPECT_EQ(diff_run_results(live.result, replayed), "");
}

TEST_F(ReplayEqualsLive, HoldsWithStorageAndRecorder) {
  test::TempFile log_file("replay_equals_live_storage.eventlog");
  LiveConfig config;
  config.router = "price-aware";
  config.period = window_of(*fixture_, 6);
  config.steps_per_hour = 12;
  config.samples_per_hour = 12;
  config.record_hourly_energy = true;
  config.shadow_baseline = false;
  core::StorageSpec storage;
  storage.battery.capacity = MegawattHours{1.0};
  storage.battery.max_charge = Watts{400'000.0};
  storage.battery.max_discharge = Watts{400'000.0};
  storage.battery.round_trip_efficiency = 0.9;
  config.storage = storage;

  LiveRun live;
  {
    EventLogWriter log(log_file.path());
    live = drive_live(*fixture_, config, &log);
    log.close();
  }
  EXPECT_TRUE(live.result.storage.engaged);

  const core::RunResult batch =
      batch_over_fixture(*fixture_, config, live.demand);
  EXPECT_EQ(diff_run_results(live.result, batch), "");

  const core::RunResult replayed = replay_file(*fixture_, log_file.path());
  EXPECT_EQ(diff_run_results(live.result, replayed), "");

  // The audit records cover every step: one routing decision, one
  // storage action.
  const RecordedSession session = read_session(log_file.path());
  EXPECT_EQ(session.decisions.size(), live.demand.size());
  EXPECT_EQ(session.storage_actions.size(), live.demand.size());
  EXPECT_TRUE(session.meta.storage.has_value());
  EXPECT_TRUE(session.meta.record_hourly_energy);
}

TEST_F(ReplayEqualsLive, HoldsUnderDelayStepsRouting) {
  // The price-freshness knob through the full live/replay stack: route
  // on the previous 5-minute settlement, and on the one 18 intervals
  // back - a delay longer than an hour of intervals, whose two-hour
  // front margin the feed, the live assembler and replay must all agree
  // on.
  for (const int delay_steps : {1, 18}) {
    SCOPED_TRACE(testing::Message() << "delay_steps " << delay_steps);
    test::TempFile log_file("replay_equals_live_delay_steps_" +
                            std::to_string(delay_steps) + ".eventlog");
    LiveConfig config;
    config.router = "price-aware";
    config.period = window_of(*fixture_, 6);
    config.steps_per_hour = 12;
    config.samples_per_hour = 12;
    config.delay_steps = delay_steps;
    config.shadow_baseline = false;

    LiveRun live;
    {
      EventLogWriter log(log_file.path());
      live = drive_live(*fixture_, config, &log);
      log.close();
    }
    const core::RunResult batch =
        batch_over_fixture(*fixture_, config, live.demand);
    EXPECT_EQ(diff_run_results(live.result, batch), "");
    const core::RunResult replayed = replay_file(*fixture_, log_file.path());
    EXPECT_EQ(diff_run_results(live.result, replayed), "");
  }
}

// --- streaming guards -------------------------------------------------------

TEST_F(ReplayEqualsLive, AdvanceThrowsBeforeThePricesSeal) {
  LiveConfig config;
  config.period = window_of(*fixture_, 2);
  config.shadow_baseline = false;
  LiveEngine live(*fixture_, config);

  const std::vector<double> demand(live.state_count(), 1.0);
  // No ticks ingested: the first step's intervals cannot be sealed.
  EXPECT_GT(live.needed_end(), live.sealed_end());
  EXPECT_THROW(live.advance(demand), std::logic_error);
  EXPECT_EQ(live.steps_done(), 0);
  EXPECT_EQ(live.steps_total(), 2 * 12);
}

TEST_F(ReplayEqualsLive, ReplayValidatesTheFixture) {
  test::TempFile log_file("replay_wrong_seed.eventlog");
  LiveConfig config;
  config.period = window_of(*fixture_, 2);
  config.shadow_baseline = false;
  {
    EventLogWriter log(log_file.path());
    (void)drive_live(*fixture_, config, &log);
    log.close();
  }
  RecordedSession session = read_session(log_file.path());
  session.meta.seed = 777;  // not the fixture's seed
  EXPECT_THROW((void)replay(*fixture_, session), std::invalid_argument);
}

TEST_F(ReplayEqualsLive, ReplayRejectsALogWhoseTicksStopShort) {
  // A log cut short of its last settlements would leave the final steps'
  // prices unpriced placeholders (NaN): replay refuses it, naming the
  // step and both intervals, instead of returning a NaN bill.
  test::TempFile log_file("replay_short_ticks.eventlog");
  LiveConfig config;
  config.period = window_of(*fixture_, 2);
  config.shadow_baseline = false;
  {
    EventLogWriter log(log_file.path());
    (void)drive_live(*fixture_, config, &log);
    log.close();
  }
  RecordedSession session = read_session(log_file.path());
  EXPECT_TRUE(std::isfinite(replay(*fixture_, session).total_cost.value()));
  ASSERT_GT(session.ticks.size(), 20u);
  session.ticks.resize(session.ticks.size() - 20);
  try {
    (void)replay(*fixture_, session);
    ADD_FAILURE() << "a log whose ticks stop short replayed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("replay: step "), std::string::npos) << what;
    EXPECT_NE(what.find("needs prices sealed through interval"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("the recorded ticks seal"), std::string::npos) << what;
  }
}

TEST_F(ReplayEqualsLive, LiveAndReplayRejectIntervalsNotDividingTheHour) {
  // 9 is the case that matters: 60 / 9 truncates to a valid-looking
  // 6-minute market, which would price a 10-per-hour series against a
  // 9-per-hour tick stream.
  test::TempFile log_file("replay_bad_interval.eventlog");
  LiveConfig config;
  config.period = window_of(*fixture_, 2);
  config.shadow_baseline = false;
  {
    EventLogWriter log(log_file.path());
    (void)drive_live(*fixture_, config, &log);
    log.close();
  }
  const RecordedSession recorded = read_session(log_file.path());
  for (const int samples_per_hour : {0, 9}) {
    SCOPED_TRACE(testing::Message() << samples_per_hour << " per hour");
    LiveConfig bad = config;
    bad.samples_per_hour = samples_per_hour;
    EXPECT_THROW((void)scenario_of(bad), std::invalid_argument);
    EXPECT_THROW(LiveEngine live(*fixture_, bad), std::invalid_argument);

    RecordedSession session = recorded;
    session.meta.samples_per_hour = samples_per_hour;
    EXPECT_THROW((void)replay(*fixture_, session), std::invalid_argument);
  }
}

TEST_F(ReplayEqualsLive, PushWorkloadGuardsItsShape) {
  PushWorkload workload(Period{0, 1}, 4, 3);
  EXPECT_EQ(workload.steps(), 4);
  EXPECT_EQ(workload.pushed(), 0);
  const std::vector<double> bad(2, 1.0);
  EXPECT_THROW(workload.push(bad), std::invalid_argument);

  const std::vector<double> row = {1.0, 2.0, 3.0};
  workload.push(row);
  std::vector<double> out(3, 0.0);
  workload.demand(0, out);
  EXPECT_EQ(out, row);
  EXPECT_THROW(workload.demand(1, out), std::out_of_range);  // not pushed yet

  workload.push(row);
  workload.push(row);
  workload.push(row);
  EXPECT_THROW(workload.push(row), std::invalid_argument);  // full
}

// One NaN settlement or demand entry would turn the whole RunResult to
// NaN (and break the router's price ordering), so ingest refuses it.
constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

TEST_F(ReplayEqualsLive, TickAssemblerRejectsNonFinitePrices) {
  const HubId hub{2};
  market::TickAssembler assembler(Period{10, 12}, 1, 4, {hub});
  for (const double price : kNonFinite) {
    try {
      assembler.add(hub, 10, price);
      ADD_FAILURE() << price << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("hub 2 interval 10"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(assembler.ticks(), 0);
  EXPECT_EQ(assembler.sealed_end(), 10);
  assembler.add(hub, 10, -12.5);  // negative prices stay legal
  EXPECT_EQ(assembler.sealed_end(), 11);
}

TEST_F(ReplayEqualsLive, PushWorkloadRejectsNonFiniteDemand) {
  PushWorkload workload(Period{0, 1}, 4, 3);
  for (const double bad : kNonFinite) {
    try {
      workload.push(std::vector<double>{1.0, bad, 3.0});
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("step 0 state 1"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(workload.pushed(), 0);
  workload.push(std::vector<double>{1.0, -2.0, 3.0});
  EXPECT_EQ(workload.pushed(), 1);
}

TEST_F(ReplayEqualsLive, NonFiniteInputIsRejectedBeforeItIsLogged) {
  test::TempFile log_file("live_non_finite.eventlog");
  LiveConfig config;
  config.period = window_of(*fixture_, 2);
  config.shadow_baseline = false;
  std::size_t ticks_sent = 0;
  {
    EventLogWriter log(log_file.path());
    LiveEngine live(*fixture_, config, &log);
    const std::span<const HubId> hubs = live.tracked_hubs();
    EXPECT_THROW(live.on_price_tick(hubs.front(), live.sealed_end(),
                                    kNonFinite[0]),
                 std::invalid_argument);
    while (live.sealed_end() < live.needed_end()) {
      const std::int64_t interval = live.sealed_end();
      for (const HubId hub : hubs) {
        live.on_price_tick(hub, interval, 30.0);
        ++ticks_sent;
      }
    }
    std::vector<double> demand(live.state_count(), 1.0);
    demand[3] = kNonFinite[0];
    EXPECT_THROW(live.advance(demand), std::invalid_argument);
    EXPECT_EQ(live.steps_done(), 0);
    demand[3] = 1.0;
    live.advance(demand);
    EXPECT_EQ(live.steps_done(), 1);
    log.close();
  }
  const RecordedSession logged = read_session(log_file.path());
  EXPECT_EQ(logged.ticks.size(), ticks_sent);
  ASSERT_EQ(logged.steps.size(), 1u);
  EXPECT_EQ(logged.steps[0].demand[3], 1.0);
}

}  // namespace
}  // namespace cebis::service
