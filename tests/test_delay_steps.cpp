// The ScenarioSpec::delay_steps price-freshness knob: routing reacts to
// the settlement `delay_steps` native market intervals back instead of
// `delay_hours` whole hours back. The identities pinned here:
//
//   delay_steps = samples_per_hour  ==  delay_hours = 1, byte-for-byte
//     (both read the same sub-interval of the previous hour)
//   delay_steps = 1                 !=  delay_hours = 1
//     (reacting to the previous 5-minute settlement genuinely reroutes)
//
// plus the one delay function both the priced-window margin and the
// engine's routing-price lookup read, the engine-level validation (a
// sweep rejects a bad cell before it runs any) and batched sweeps mixing
// delays matching their solo runs.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "core/experiment.h"
#include "test_support.h"

namespace cebis::core {
namespace {

class DelayStepsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(Fixture::make(test::kTestSeed));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static Fixture* fixture_;

  static ScenarioSpec five_minute_spec() {
    ScenarioSpec spec{
        .router = "price-aware",
        .config = PriceAwareConfig{.distance_threshold = Km{1500.0}},
        .energy = energy::google_params(),
        .workload = WorkloadKind::kTrace24Day,
        .enforce_p95 = true,
    };
    spec.market_interval_minutes = 5;
    return spec;
  }
};

Fixture* DelayStepsTest::fixture_ = nullptr;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST_F(DelayStepsTest, TwelveStepsAtFiveMinutesReproducesOneHourDelay) {
  ScenarioSpec hour_delay = five_minute_spec();
  hour_delay.delay_hours = 1;
  hour_delay.delay_steps = 0;

  ScenarioSpec step_delay = five_minute_spec();
  step_delay.delay_steps = 12;  // 12 x 5 min = the same one-hour lag

  const RunResult a = run_scenario(*fixture_, hour_delay);
  const RunResult b = run_scenario(*fixture_, step_delay);
  EXPECT_TRUE(same_bits(a.total_cost.value(), b.total_cost.value()))
      << a.total_cost.value() << " vs " << b.total_cost.value();
  EXPECT_TRUE(same_bits(a.total_energy.value(), b.total_energy.value()));
  ASSERT_EQ(a.cluster_cost.size(), b.cluster_cost.size());
  for (std::size_t c = 0; c < a.cluster_cost.size(); ++c) {
    EXPECT_TRUE(same_bits(a.cluster_cost[c], b.cluster_cost[c])) << c;
  }
  EXPECT_EQ(a.overflow_steps, b.overflow_steps);
}

TEST_F(DelayStepsTest, OneStepDelayGenuinelyReroutes) {
  // Fresher prices change the routing decisions (and with them the
  // bill) - the knob is not a no-op relabeling of delay_hours.
  ScenarioSpec hour_delay = five_minute_spec();
  ScenarioSpec fresh = five_minute_spec();
  fresh.delay_steps = 1;  // react to the previous 5-minute settlement

  const RunResult stale = run_scenario(*fixture_, hour_delay);
  const RunResult quick = run_scenario(*fixture_, fresh);
  EXPECT_NE(stale.total_cost.value(), quick.total_cost.value());
  // Traffic served is invariant to price freshness.
  EXPECT_NEAR(stale.hit_hours, quick.hit_hours, test::kSumTol);
}

TEST_F(DelayStepsTest, SweepMatchesSoloRunsAcrossDelaySteps) {
  // A sweep mixing a delay_hours cell with delay_steps cells: each cell
  // routes on its own delay (the engine bakes it into its routing-price
  // lookup), exactly as it would run alone.
  ScenarioSpec stale = five_minute_spec();
  ScenarioSpec fresh = five_minute_spec();
  fresh.delay_steps = 1;

  const ScenarioSpec sweep[] = {stale, fresh, fresh};
  const auto runs = run_scenarios(*fixture_, sweep);
  EXPECT_TRUE(same_bits(runs[0].total_cost.value(),
                        run_scenario(*fixture_, stale).total_cost.value()));
  EXPECT_TRUE(same_bits(runs[1].total_cost.value(),
                        runs[2].total_cost.value()));
  EXPECT_NE(runs[0].total_cost.value(), runs[1].total_cost.value());
}

TEST(RoutingDelay, FoldsBothKnobsIntoNativeIntervalsAndHourMargins) {
  struct Row {
    int delay_hours;
    int delay_steps;
    int samples_per_hour;
    std::int64_t intervals;
    std::int64_t margin_hours;
  };
  const Row rows[] = {
      // Hourly market: the hour delay is the interval delay.
      {0, 0, 1, 0, 0},
      {1, 0, 1, 1, 1},
      {3, 0, 1, 3, 3},
      // 5-minute market: hour delays scale to intervals, and
      // delay_steps replaces them, rounded up to whole hours.
      {0, 0, 12, 0, 0},
      {1, 0, 12, 12, 1},
      {3, 0, 12, 36, 3},
      {1, 1, 12, 1, 1},
      {1, 12, 12, 12, 1},
      {1, 13, 12, 13, 2},
      {1, 24, 12, 24, 2},
  };
  const Period period{1000, 1024};
  for (const Row& row : rows) {
    SCOPED_TRACE(testing::Message()
                 << "delay_hours " << row.delay_hours << ", delay_steps "
                 << row.delay_steps << ", " << row.samples_per_hour << "/h");
    EXPECT_EQ(routing_delay_intervals(row.delay_hours, row.delay_steps,
                                      row.samples_per_hour),
              row.intervals);
    const Period priced = priced_window(period, row.delay_hours,
                                        row.delay_steps, row.samples_per_hour);
    EXPECT_EQ(period.begin - priced.begin, row.margin_hours);
    EXPECT_EQ(priced.end, period.end);
  }
}

/// Counts the runs it saw begin.
struct RunBeginCounter final : StepObserver {
  int begun = 0;
  void on_run_begin(const RunInfo&, std::span<const Cluster>) override {
    ++begun;
  }
  void on_step(const StepView&) override {}
};

TEST_F(DelayStepsTest, ValidatesTheConfiguration) {
  // Negative lag is meaningless.
  ScenarioSpec spec = five_minute_spec();
  spec.delay_steps = -1;
  EXPECT_THROW((void)run_scenario(*fixture_, spec), std::invalid_argument);

  // A sweep validates every cell before it runs any: the valid first
  // cell never begins.
  RunBeginCounter counter;
  ScenarioSpec valid = five_minute_spec();
  valid.observers = {&counter};
  const ScenarioSpec sweep[] = {valid, spec};
  EXPECT_THROW((void)run_scenarios(*fixture_, sweep), std::invalid_argument);
  EXPECT_EQ(counter.begun, 0);
}

}  // namespace
}  // namespace cebis::core
