// Lazy price-history materialization (ROADMAP scale target): a fixture
// no longer generates the 39-month history eagerly. Short-window
// scenarios must only pay for the hours they replay, growth must be
// monotone with stable addresses, and - the guard this suite exists
// for - every result must be byte-identical to the eager path.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "market/lazy_price_history.h"
#include "market/market_simulator.h"
#include "test_support.h"

namespace cebis::core {
namespace {

ScenarioSpec trace_spec() {
  return ScenarioSpec{
      .router = "price-aware",
      .config = PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = WorkloadKind::kTrace24Day,
      .enforce_p95 = true,
  };
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.total_cost.value(), b.total_cost.value());
  EXPECT_EQ(a.total_energy.value(), b.total_energy.value());
  EXPECT_EQ(a.mean_distance_km, b.mean_distance_km);
  EXPECT_EQ(a.hit_hours, b.hit_hours);
  ASSERT_EQ(a.cluster_cost.size(), b.cluster_cost.size());
  for (std::size_t c = 0; c < a.cluster_cost.size(); ++c) {
    EXPECT_EQ(a.cluster_cost[c], b.cluster_cost[c]);
    EXPECT_EQ(a.cluster_energy[c], b.cluster_energy[c]);
  }
}

TEST(LazyPriceHistory, WindowsAgreeWithTheFullSetByteForByte) {
  // The generator invariant the whole satellite rests on: a window's
  // prices equal the same hours of the full study set, exactly.
  market::LazyPriceHistory lazy(test::kTestSeed);
  const Period window{trace_period().begin - 48, trace_period().end};
  const market::PriceSet& small = lazy.cover(window);
  EXPECT_EQ(small.period, window);

  market::LazyPriceHistory eager(test::kTestSeed);
  const market::PriceSet& full = eager.full();
  ASSERT_EQ(full.period, study_period());
  for (std::size_t hub = 0; hub < full.rt.size(); ++hub) {
    if (full.rt[hub].empty()) {
      EXPECT_TRUE(small.rt[hub].empty());
      continue;
    }
    for (HourIndex h = window.begin; h < window.end; ++h) {
      ASSERT_EQ(small.rt[hub].at(h), full.rt[hub].at(h)) << hub << " " << h;
      ASSERT_EQ(small.da[hub].at(h), full.da[hub].at(h)) << hub << " " << h;
    }
  }
}

TEST(LazyPriceHistory, GrowsMonotonicallyWithStableAddresses) {
  market::LazyPriceHistory lazy(test::kTestSeed);
  EXPECT_EQ(lazy.materialized_hours(), 0);
  EXPECT_EQ(lazy.generations(), 0u);

  const market::PriceSet& first = lazy.cover(Period{100, 200});
  EXPECT_EQ(lazy.generations(), 1u);
  EXPECT_EQ(lazy.materialized_hours(), 100);
  // A covered request reuses the current set.
  EXPECT_EQ(&lazy.cover(Period{120, 180}), &first);
  EXPECT_EQ(lazy.generations(), 1u);

  // Widening generates the union window; the old set stays valid.
  const market::PriceSet& second = lazy.cover(Period{150, 400});
  EXPECT_EQ(lazy.generations(), 2u);
  EXPECT_EQ(second.period, (Period{100, 400}));
  EXPECT_EQ(first.period, (Period{100, 200}));
  for (HourIndex h = 100; h < 200; ++h) {
    ASSERT_EQ(first.rt[0].at(h), second.rt[0].at(h));
  }

  // Requests beyond the study period are clamped to it.
  const Period study = study_period();
  const market::PriceSet& wide =
      lazy.cover(Period{study.begin - 100, study.end + 100});
  EXPECT_EQ(wide.period, study);
}

TEST(LazyPriceHistory, ServesTheMarketItsParametersDescribe) {
  // An ablation swaps in a different market by building the history
  // over other parameters: every window it serves must be exactly what
  // a MarketSimulator over those parameters generates.
  market::PriceModelParams calm = market::PriceModelParams::defaults();
  calm.spikes.onset_per_hour = 0.0;
  calm.spikes.rto_event_per_hour = 0.0;
  calm.spikes.scarcity_per_hour = 0.0;
  const market::LazyPriceHistory lazy(test::kTestSeed, calm);
  const Period window{trace_period().begin - 48, trace_period().begin + 96};
  const market::PriceSet& got = lazy.cover(window);
  const market::MarketSimulator calm_sim(market::HubRegistry::instance(), calm,
                                         test::kTestSeed);
  const market::PriceSet want = calm_sim.generate(window);
  const market::PriceSet spiky =
      market::MarketSimulator(test::kTestSeed).generate(window);
  ASSERT_EQ(got.period, want.period);
  ASSERT_EQ(got.rt.size(), want.rt.size());
  bool differs_from_default = false;
  for (std::size_t hub = 0; hub < want.rt.size(); ++hub) {
    ASSERT_EQ(got.rt[hub].size(), want.rt[hub].size()) << hub;
    for (std::size_t i = 0; i < want.rt[hub].size(); ++i) {
      ASSERT_EQ(got.rt[hub].values()[i], want.rt[hub].values()[i]) << hub;
      ASSERT_EQ(got.da[hub].values()[i], want.da[hub].values()[i]) << hub;
      if (got.rt[hub].values()[i] != spiky.rt[hub].values()[i]) {
        differs_from_default = true;
      }
    }
  }
  // The parameters reached the generator: this is not the default market.
  EXPECT_TRUE(differs_from_default);
}

TEST(LazyFixture, TraceScenarioOnlyMaterializesTheTraceWindow) {
  const Fixture fixture = Fixture::make(test::kTestSeed);
  EXPECT_EQ(fixture.price_history->generations(), 0u);

  (void)run_scenario(fixture, trace_spec());
  // 24-day window + the 1h routing delay margin, not 39 months.
  EXPECT_EQ(fixture.price_history->generations(), 1u);
  EXPECT_EQ(fixture.price_history->materialized_hours(),
            trace_period().hours() + 1);
  EXPECT_LT(fixture.price_history->materialized_hours(),
            study_period().hours() / 10);
}

TEST(LazyFixture, ResultsAreByteIdenticalToTheEagerPath) {
  // Lazy fixture: runs the trace scenario off a window materialization,
  // then a synthetic scenario that forces widening.
  const Fixture lazy = Fixture::make(test::kTestSeed);
  const RunResult lazy_trace = run_scenario(lazy, trace_spec());

  ScenarioSpec synth = trace_spec();
  synth.workload = WorkloadKind::kSynthetic39Month;
  const RunResult lazy_synth = run_scenario(lazy, synth);
  EXPECT_GE(lazy.price_history->generations(), 2u);

  // Eager fixture: materialize the full history first (what
  // Fixture::make used to do unconditionally), then run the same specs.
  const Fixture eager = Fixture::make(test::kTestSeed);
  (void)eager.prices();
  EXPECT_EQ(eager.price_history->materialized_hours(), study_period().hours());
  const RunResult eager_trace = run_scenario(eager, trace_spec());
  const RunResult eager_synth = run_scenario(eager, synth);

  expect_identical(lazy_trace, eager_trace);
  expect_identical(lazy_synth, eager_synth);
}

TEST(LazyFixture, CheapestClusterDoesNotRetainTheFullHistory) {
  // The static-relocation target is *defined over the full study
  // period* (all 28464 hours feed the per-hub means), but resolving it
  // used to materialize - and retain - the entire 39-month history,
  // defeating the lazy fixture for any sweep that mentions
  // "static-cheapest". The means are now streamed from a scratch set
  // that is discarded: same argmin, no retained hours.
  const Fixture fixture = Fixture::make(test::kTestSeed);
  const std::size_t cheapest = fixture.cheapest_cluster();
  EXPECT_EQ(fixture.clusters[cheapest].label, "IL");
  EXPECT_EQ(fixture.price_history->materialized_hours(), 0);
  EXPECT_EQ(fixture.price_history->generations(), 0u);

  // Memoized: repeated calls re-read the memoized means, never the
  // study period (LazyPriceHistory::study_rt_means).
  EXPECT_EQ(fixture.cheapest_cluster(), cheapest);
  EXPECT_EQ(fixture.cheapest_cluster(), cheapest);
  EXPECT_EQ(fixture.price_history->study_mean_passes(), 1u);
}

TEST(LazyFixture, StaticCheapestSweepOnlyMaterializesTheTraceWindow) {
  // End-to-end version of the guard above: a 24-day sweep through the
  // router that needs the relocation target must still only pay for the
  // trace window (+1h delay margin), not the full study period.
  const Fixture fixture = Fixture::make(test::kTestSeed);
  ScenarioSpec spec = trace_spec();
  spec.router = "static-cheapest";
  spec.config = std::monostate{};
  const std::vector<ScenarioSpec> specs{spec};
  (void)run_scenarios(fixture, specs, SweepOptions{.threads = 1});
  EXPECT_EQ(fixture.price_history->materialized_hours(),
            trace_period().hours() + 1);
  EXPECT_LT(fixture.price_history->materialized_hours(),
            study_period().hours() / 10);
  EXPECT_EQ(fixture.price_history->study_mean_passes(), 1u);
}

}  // namespace
}  // namespace cebis::core
