// Microbenchmarks (google-benchmark): market and trace generation
// throughput. Both generators fan out over a worker pool, so their rates
// are on wall time (UseRealTime): the calling thread's CPU time would
// leave out the workers' share.

#include <benchmark/benchmark.h>

#include "market/market_simulator.h"
#include "traffic/trace_generator.h"

namespace {

using namespace cebis;

void BM_MarketGeneration(benchmark::State& state) {
  const market::MarketSimulator sim(2009);
  const HourIndex begin = trace_period().begin;
  const Period period{begin, begin + state.range(0) * 24};
  for (auto _ : state) {
    const market::PriceSet set = sim.generate(period);
    benchmark::DoNotOptimize(set.rt.size());
  }
  state.SetItemsProcessed(state.iterations() * period.hours() * 29);
}
BENCHMARK(BM_MarketGeneration)
    ->Arg(1)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FullStudyGeneration(benchmark::State& state) {
  const market::MarketSimulator sim(2009);
  for (auto _ : state) {
    const market::PriceSet set = sim.generate(study_period());
    benchmark::DoNotOptimize(set.rt.size());
  }
  state.SetItemsProcessed(state.iterations() * study_period().hours() * 29);
}
BENCHMARK(BM_FullStudyGeneration)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TraceGeneration(benchmark::State& state) {
  const traffic::TraceGenerator gen(2009);
  const HourIndex begin = trace_period().begin;
  const Period period{begin, begin + state.range(0) * 24};
  for (auto _ : state) {
    const traffic::TrafficTrace trace = gen.generate(period);
    benchmark::DoNotOptimize(trace.steps());
  }
  state.SetItemsProcessed(state.iterations() * period.hours() * 12 * 51);
}
BENCHMARK(BM_TraceGeneration)
    ->Arg(1)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FiveMinuteSeries(benchmark::State& state) {
  const market::MarketSimulator sim(2009);
  const Period period{trace_period().begin, trace_period().begin + 7 * 24};
  const market::PriceSet set = sim.generate(period);
  const HubId nyc = market::HubRegistry::instance().by_code("NYC");
  for (auto _ : state) {
    const auto fm = sim.sub_hourly_series(nyc, set.rt[nyc.index()], 12);
    benchmark::DoNotOptimize(fm.data());
  }
  state.SetItemsProcessed(state.iterations() * period.hours() * 12);
}
BENCHMARK(BM_FiveMinuteSeries);

}  // namespace

BENCHMARK_MAIN();
