// Microbenchmarks (google-benchmark): router and simulation throughput.
// These are performance numbers for the library itself, not paper
// reproductions.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/experiment.h"

namespace {

using namespace cebis;

const core::Fixture& fixture() {
  static const core::Fixture fx = core::Fixture::make(2009);
  return fx;
}

// Every benchmark in this binary must report the same user-counter set:
// google-benchmark's CSV reporter hard-aborts otherwise (CI exports the
// CSV artifact). Router-level benches report the real rebuild rate; the
// engine-level simulations report 0 (their router lives inside
// run_scenario, so its plan cache is not observable from here).
void report_plan_rebuilds(benchmark::State& state, double per_step) {
  state.counters["plan_rebuilds_per_step"] = benchmark::Counter(per_step);
}

void BM_PriceAwareRoute(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  core::PriceAwareConfig cfg;
  cfg.distance_threshold = Km{static_cast<double>(state.range(0))};
  core::PriceAwareRouter router(fx.distances, fx.clusters.size(), cfg);

  const std::size_t n_states = geo::StateRegistry::instance().size();
  std::vector<double> demand(n_states, 1000.0);
  std::vector<double> price = {54.0, 56.0, 66.5, 77.9, 40.6, 57.8, 64.0, 52.0, 51.0};
  std::vector<double> capacity(fx.clusters.size());
  for (std::size_t c = 0; c < fx.clusters.size(); ++c) {
    capacity[c] = fx.clusters[c].capacity.value();
  }
  core::Allocation alloc(n_states, fx.clusters.size());
  core::RoutingContext ctx;
  ctx.demand = demand;
  ctx.price = price;
  ctx.capacity = capacity;

  for (auto _ : state) {
    router.route(ctx, alloc);
    benchmark::DoNotOptimize(alloc.cluster_totals().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n_states));
  // Fixed prices: the plan is built on the first route() and replayed
  // for every subsequent iteration.
  report_plan_rebuilds(state,
                       state.iterations() > 0
                           ? static_cast<double>(router.plan_rebuilds()) /
                                 static_cast<double>(state.iterations())
                           : 0.0);
}
BENCHMARK(BM_PriceAwareRoute)->Arg(0)->Arg(1500)->Arg(5000);

// The hour-scoped plan on a 5-minute cadence: 24 hours x 12 steps with
// per-step demand jitter. Arg(1) reprices once per hour (the trace-run
// shape - the plan is built once and replayed for the other 11 steps);
// Arg(0) reprices every step (worst case - the plan can never be
// replayed). The plan_rebuilds counter confirms which regime ran.
void BM_FiveMinutePlanReplay(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  core::PriceAwareConfig cfg;
  cfg.distance_threshold = Km{1500.0};
  core::PriceAwareRouter router(fx.distances, fx.clusters.size(), cfg);

  const std::size_t n_states = geo::StateRegistry::instance().size();
  const std::size_t n_clusters = fx.clusters.size();
  constexpr int kHours = 24;
  constexpr int kStepsPerHour = 12;
  const bool hourly_prices = state.range(0) != 0;

  const double price_seeds[] = {54.0, 56.0, 66.5, 77.9, 40.6,
                                57.8, 64.0, 52.0, 51.0};
  std::vector<double> base_price(n_clusters);
  for (std::size_t c = 0; c < n_clusters; ++c) {
    base_price[c] = price_seeds[c % std::size(price_seeds)];
  }
  std::vector<double> price(n_clusters, 0.0);
  std::vector<double> demand(n_states, 1000.0);
  std::vector<double> capacity(n_clusters);
  for (std::size_t c = 0; c < n_clusters; ++c) {
    capacity[c] = fx.clusters[c].capacity.value();
  }
  core::Allocation alloc(n_states, n_clusters);
  core::RoutingContext ctx;
  ctx.demand = demand;
  ctx.price = price;
  ctx.capacity = capacity;

  std::int64_t steps = 0;
  for (auto _ : state) {
    for (int hour = 0; hour < kHours; ++hour) {
      for (int s = 0; s < kStepsPerHour; ++s) {
        if (s == 0 || !hourly_prices) {
          const int tick = hourly_prices ? hour : hour * kStepsPerHour + s;
          // Modulus coprime with the 288-step cycle, so consecutive
          // ticks always differ - including across the iteration
          // boundary (tick 287 -> 0) - and Arg(0) truly never replays.
          for (std::size_t c = 0; c < n_clusters; ++c) {
            price[c] = base_price[c] + static_cast<double>((tick + c) % 11);
          }
        }
        for (std::size_t i = 0; i < n_states; ++i) {
          demand[i] = 1000.0 + static_cast<double>((s * 37 + i) % 97);
        }
        router.route(ctx, alloc);
        benchmark::DoNotOptimize(alloc.cluster_totals().data());
        ++steps;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kHours * kStepsPerHour *
                          static_cast<std::int64_t>(n_states));
  report_plan_rebuilds(state,
                       steps > 0 ? static_cast<double>(router.plan_rebuilds()) /
                                       static_cast<double>(steps)
                                 : 0.0);
}
BENCHMARK(BM_FiveMinutePlanReplay)->Arg(0)->Arg(1);

void BM_TraceSimulation24Day(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  const core::ScenarioSpec s{
      .router = "price-aware",
      .energy = energy::optimistic_future_params(),
      .workload = core::WorkloadKind::kTrace24Day,
      .enforce_p95 = state.range(0) != 0,
  };
  for (auto _ : state) {
    const core::RunResult r = core::run_scenario(fx, s);
    benchmark::DoNotOptimize(r.total_cost.value());
  }
  state.SetItemsProcessed(state.iterations() * trace_period().hours() * 12);
  report_plan_rebuilds(state, 0.0);
}
BENCHMARK(BM_TraceSimulation24Day)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Synthetic39MonthSimulation(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  const core::ScenarioSpec s{
      .router = "price-aware",
      .energy = energy::optimistic_future_params(),
      .workload = core::WorkloadKind::kSynthetic39Month,
      .enforce_p95 = false,
  };
  for (auto _ : state) {
    const core::RunResult r = core::run_scenario(fx, s);
    benchmark::DoNotOptimize(r.total_cost.value());
  }
  state.SetItemsProcessed(state.iterations() * study_period().hours());
  report_plan_rebuilds(state, 0.0);
}
BENCHMARK(BM_Synthetic39MonthSimulation)->Unit(benchmark::kMillisecond);

// A fig16-style threshold sweep: one run_scenarios call over all points
// (Arg 1; every cell builds its own engine and workload, and the default
// options fan the cells out over the worker pool), versus one
// run_scenario call per point (Arg 0). The items are simulated trace
// hours across the whole sweep.
void BM_BatchedThresholdSweep(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  std::vector<core::ScenarioSpec> specs;
  for (const double km : {0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0}) {
    specs.push_back(core::ScenarioSpec{
        .router = "price-aware",
        .config = core::PriceAwareConfig{.distance_threshold = Km{km}},
        .energy = energy::optimistic_future_params(),
        .workload = core::WorkloadKind::kTrace24Day,
        .enforce_p95 = false,
    });
  }
  const bool batched = state.range(0) != 0;
  for (auto _ : state) {
    if (batched) {
      const auto runs = core::run_scenarios(fx, specs);
      benchmark::DoNotOptimize(runs.back().total_cost.value());
    } else {
      for (const auto& spec : specs) {
        const core::RunResult r = core::run_scenario(fx, spec);
        benchmark::DoNotOptimize(r.total_cost.value());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()) *
                          trace_period().hours());
  report_plan_rebuilds(state, 0.0);
}
BENCHMARK(BM_BatchedThresholdSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The same style of sweep fanned out over run_scenarios' worker pool:
// 12 cells (6 thresholds x 95/5 on/off) so the pool has real work. Arg
// is SweepOptions::threads - 1 pins the historical serial path, 0 uses
// hardware concurrency. Results are byte-identical either way (guarded
// in tests/test_scenario_api.cpp); this bench measures the wall-clock
// win, which only shows on multi-core hosts (a 1-CPU runner reports
// ~1x by construction). The pool's workers do the work while the
// calling thread waits, so rates are on wall time (UseRealTime) - the
// calling thread's CPU time would count only its own share.
void BM_ParallelThresholdSweep(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  std::vector<core::ScenarioSpec> specs;
  for (const double km : {0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0}) {
    for (const bool follow : {false, true}) {
      specs.push_back(core::ScenarioSpec{
          .router = "price-aware",
          .config = core::PriceAwareConfig{.distance_threshold = Km{km}},
          .energy = energy::optimistic_future_params(),
          .workload = core::WorkloadKind::kTrace24Day,
          .enforce_p95 = follow,
      });
    }
  }
  const core::SweepOptions opts{.threads = static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const std::vector<core::RunResult> runs =
        core::run_scenarios(fx, specs, opts);
    benchmark::DoNotOptimize(runs.back().total_cost.value());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()) *
                          trace_period().hours() * 12);
  report_plan_rebuilds(state, 0.0);
}
BENCHMARK(BM_ParallelThresholdSweep)
    ->Arg(1)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
