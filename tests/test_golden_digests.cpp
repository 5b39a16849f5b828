// Bit-for-bit pins of what the repository benchmark runs: every cell of
// perfbench's sweep grid, at pool width 4 and width 1, and a two-day
// live session in its service configuration. The anchors in
// test_golden_figures.cpp allow a relative error of 1e-6, and perfbench
// compares width 4 only against width 1 of the same build, so a change
// that moves the last bit of a result - such as summing the distance
// statistics in another order - passes both. These 64-bit digests of
// every RunResult field change if any output bit does.
//
// If a change moves one of these digests *on purpose*, say why in the
// commit message, and capture the new values from a build of the change.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/workload.h"
#include "service/live_engine.h"
#include "test_support.h"

namespace cebis::core {
namespace {

void add_all(test::BitDigest& d, const std::vector<double>& xs) {
  d.add(static_cast<std::uint64_t>(xs.size()));
  for (const double x : xs) d.add(x);
}

/// Every field of a RunResult, in declaration order.
std::uint64_t digest(const RunResult& r) {
  test::BitDigest d;
  d.add(r.total_cost.value());
  d.add(r.total_energy.value());
  add_all(d, r.cluster_cost);
  add_all(d, r.cluster_energy);
  d.add(r.mean_distance_km);
  d.add(r.p99_distance_km);
  add_all(d, r.realized_p95);
  d.add(r.hit_hours);
  d.add(static_cast<std::uint64_t>(r.overflow_steps));
  d.add(static_cast<std::uint64_t>(r.hourly_energy.rows()));
  d.add(static_cast<std::uint64_t>(r.hourly_energy.clusters()));
  for (const double x : r.hourly_energy.data()) d.add(x);
  const StorageOutcome& st = r.storage;
  d.add(static_cast<std::uint64_t>(st.engaged));
  d.add(st.raw_energy.value());
  d.add(st.raw_demand.value());
  d.add(st.net_energy.value());
  d.add(st.net_demand.value());
  d.add(st.charged_mwh);
  d.add(st.discharged_mwh);
  d.add(st.loss_mwh);
  d.add(st.final_soc_mwh);
  add_all(d, st.cluster_raw_usd);
  add_all(d, st.cluster_net_usd);
  return d.value;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// perfbench's sweep grid (make_grid in perfbench/src/sweep.cpp): Fig 18
/// on the 39-month hourly synthetic, baseline plus price-aware at
/// 1000/1500/2500 km with 95/5 relaxed, then Fig 16/17 on the 24-day
/// trace, baseline plus price-aware at 0-2500 km x 95/5 off/on.
std::vector<ScenarioSpec> sweep_grid() {
  const energy::EnergyModelParams energy = energy::optimistic_future_params();
  std::vector<ScenarioSpec> grid;
  const ScenarioSpec study{.router = "baseline",
                           .energy = energy,
                           .workload = WorkloadKind::kSynthetic39Month};
  grid.push_back(study);
  for (const double km : {1000.0, 1500.0, 2500.0}) {
    ScenarioSpec s = study;
    s.router = "price-aware";
    s.config = PriceAwareConfig{.distance_threshold = Km{km}};
    s.enforce_p95 = false;
    grid.push_back(s);
  }
  const ScenarioSpec trace{.router = "baseline",
                           .energy = energy,
                           .workload = WorkloadKind::kTrace24Day};
  grid.push_back(trace);
  for (const double km : {0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0}) {
    for (const bool follow : {false, true}) {
      ScenarioSpec s = trace;
      s.router = "price-aware";
      s.config = PriceAwareConfig{.distance_threshold = Km{km}};
      s.enforce_p95 = follow;
      grid.push_back(s);
    }
  }
  return grid;
}

struct SweepGolden {
  std::uint64_t seed;
  std::array<std::uint64_t, 17> cells;
};

constexpr SweepGolden kSweepGolden[] = {
    {2009,
     {0x0c9e4e30c6a7129fULL, 0x5427650dc0d5345bULL, 0x19467ee9944c4547ULL,
      0x761fd901e41a6f68ULL, 0xb3bb54ed1411019cULL, 0xa4dee57eda1ab909ULL,
      0x10d8325eb725ee3cULL, 0x7176fa396bca0a00ULL, 0x77a3e89ba3278acdULL,
      0x3139ccd0ee4b0b7bULL, 0x554e2ab496e2a913ULL, 0x6cc27a24d7bc1b40ULL,
      0x4f008515499f248eULL, 0x9c63a2be412cb44fULL, 0xb74f4ef4be4f58dcULL,
      0x324c97c7fd65f80dULL, 0x81cb2a63c9fb6a8fULL}},
    {42,
     {0xeab4e8a998540ae1ULL, 0x5f25e410d37494d4ULL, 0xfbb7bf45e0a4b7e4ULL,
      0xfe32b78b6b0ac648ULL, 0x50572ef2dcac5f89ULL, 0x3fe7abe212109fd0ULL,
      0xf1765a65ced5e26fULL, 0x174a76f48afb8197ULL, 0x3dca04a43e443786ULL,
      0x96ce491518a65429ULL, 0xacd828354be3c464ULL, 0xcbce0cad5d878f3eULL,
      0x134e8d81be2e8d0cULL, 0x2a9a8bd41e6349c0ULL, 0x932da04f4c416bf0ULL,
      0x777604840f031f6dULL, 0x2c413615f9e40925ULL}},
};

void PrintTo(const SweepGolden& golden, std::ostream* os) {
  *os << "seed " << golden.seed;
}

class GoldenSweepDigests : public ::testing::TestWithParam<SweepGolden> {};

TEST_P(GoldenSweepDigests, EveryCellAtWidthFourAndOne) {
  const SweepGolden& golden = GetParam();
  const Fixture fixture = Fixture::make(golden.seed);
  const std::vector<ScenarioSpec> grid = sweep_grid();
  ASSERT_EQ(grid.size(), golden.cells.size());
  for (const int threads : {4, 1}) {
    const std::vector<RunResult> results =
        run_scenarios(fixture, grid, SweepOptions{.threads = threads});
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(hex(digest(results[i])), hex(golden.cells[i]))
          << "seed " << golden.seed << ", width " << threads << ", cell " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenSweepDigests,
                         ::testing::ValuesIn(kSweepGolden),
                         [](const ::testing::TestParamInfo<SweepGolden>& p) {
                           return "seed" + std::to_string(p.param.seed);
                         });

/// perfbench's service session (session_config in perfbench/src/bench.cpp)
/// over the trace's first two days: price-aware on the 5-minute market,
/// a shadow baseline, and a Lyapunov battery behind every cluster.
service::LiveConfig service_config(Period period) {
  service::LiveConfig config;
  config.router = "price-aware";
  config.period = period;
  config.steps_per_hour = 12;
  config.samples_per_hour = 12;
  config.shadow_baseline = true;
  StorageSpec storage;
  storage.policy = "lyapunov";
  storage.battery.capacity = MegawattHours{1.0};
  storage.battery.max_charge = Watts{400'000.0};
  storage.battery.max_discharge = Watts{400'000.0};
  storage.battery.round_trip_efficiency = 0.9;
  storage.tariff.demand_usd_per_kw_month = Usd{12.0};
  config.storage = storage;
  return config;
}

TEST(GoldenLiveDigests, TwoDayServiceSession) {
  const Fixture fixture = Fixture::make(test::kTestSeed);
  const Period trace = fixture.trace.period();
  const service::LiveConfig config =
      service_config(Period{trace.begin, trace.begin + 48});
  service::LiveEngine live(fixture, config);

  // Every tick the session reads, routing-delay margin included, then
  // every step of the trace's demand.
  const int sph = config.samples_per_hour;
  const Period priced{config.period.begin - config.delay_hours,
                      config.period.end};
  const market::PriceSet& prices = fixture.prices_covering(priced, sph);
  for (std::int64_t i = priced.begin * sph; i < priced.end * sph; ++i) {
    const HourIndex hour = i / sph;
    const auto sample = static_cast<int>(i - hour * sph);
    for (const HubId hub : live.tracked_hubs()) {
      live.on_price_tick(hub, i, prices.rt_at(hub, hour, sample).value());
    }
  }
  const TraceWorkload demand(fixture.trace, fixture.allocation);
  std::vector<double> row(demand.state_count());
  test::BitDigest decisions;
  for (std::int64_t k = 0; !live.done(); ++k) {
    demand.demand(k, row);
    live.advance(row);
    for (const double load : live.last_decision().cluster_load) {
      decisions.add(load);
    }
  }
  const service::RollingEstimators& savings =
      live.telemetry().savings_usd_per_step;
  test::BitDigest shadow;
  shadow.add(savings.mean());
  shadow.add(savings.ewma());
  shadow.add(savings.last());
  const RunResult result = live.finish();

  EXPECT_EQ(live.steps_done(), 576);
  EXPECT_EQ(hex(digest(result)), hex(0xcddd952c6675bc6fULL)) << "run result";
  EXPECT_EQ(hex(decisions.value), hex(0x0d8e65435d5ecd72ULL))
      << "per-step routing decisions";
  EXPECT_EQ(hex(shadow.value), hex(0x69ef329d362e5f40ULL))
      << "savings against the shadow baseline";
}

}  // namespace
}  // namespace cebis::core
