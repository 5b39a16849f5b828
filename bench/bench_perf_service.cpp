// Microbenchmarks (google-benchmark): live service mode throughput.
//
// BM_LiveIngest drives a full LiveEngine session - tick ingestion,
// seal-gated stepping, event logging to /dev/null-equivalent tmp file -
// and reports ticks/second; BM_LogReplay measures reading a recorded
// log and re-feeding it to a fresh LiveEngine (service::replay_file);
// BM_EventLogScan isolates the binary format itself (read + CRC of
// every frame).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "service/event_log.h"
#include "service/live_engine.h"
#include "service/replay.h"

namespace {

using namespace cebis;

const core::Fixture& fixture() {
  static const core::Fixture fx = core::Fixture::make(2009);
  return fx;
}

std::string tmp_log_path() {
  static const std::string path = [] {
    const char* dir = std::getenv("TMPDIR");
    return std::string(dir != nullptr ? dir : "/tmp") +
           "/cebis_bench_service.eventlog";
  }();
  return path;
}

service::LiveConfig live_config(const core::Fixture& fx, std::int64_t hours) {
  service::LiveConfig config;
  config.router = "price-aware";
  const Period trace = fx.trace.period();
  config.period = Period{trace.begin, trace.begin + hours};
  config.steps_per_hour = 12;
  config.samples_per_hour = 12;
  config.shadow_baseline = false;
  return config;
}

/// Drives one whole live session; returns the tick count.
std::int64_t drive(const core::Fixture& fx, const service::LiveConfig& config,
                   service::EventLogWriter* log) {
  service::LiveEngine live(fx, config, log);
  const int sph = config.samples_per_hour;
  const Period priced = core::priced_window(
      config.period, config.delay_hours, config.delay_steps, sph);
  const market::PriceSet& feed = fx.prices_covering(priced, sph);

  std::vector<HubId> hubs;
  for (const core::Cluster& c : fx.clusters) {
    bool seen = false;
    for (const HubId h : hubs) seen = seen || h.index() == c.hub.index();
    if (!seen) hubs.push_back(c.hub);
  }
  const core::TraceWorkload demand_feed(fx.trace, fx.allocation);
  std::vector<double> demand(demand_feed.state_count(), 0.0);

  std::int64_t ticks = 0;
  for (std::int64_t interval = priced.begin * sph;
       interval < config.period.end * sph; ++interval) {
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : hubs) {
      live.on_price_tick(hub, interval, feed.rt_at(hub, hour, sub).value());
      ++ticks;
    }
    while (!live.done() && live.needed_end() <= live.sealed_end()) {
      demand_feed.demand(live.steps_done(), demand);
      live.advance(demand);
    }
  }
  benchmark::DoNotOptimize(live.finish().total_cost.value());
  return ticks;
}

void BM_LiveIngest(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  const service::LiveConfig config = live_config(fx, state.range(0));
  // Materialize the lazy price history outside the timed loop - the
  // bench measures ingest, not first-touch synthesis.
  (void)fx.prices_covering(
      core::priced_window(config.period, config.delay_hours,
                          config.delay_steps, config.samples_per_hour),
      config.samples_per_hour);
  std::int64_t ticks = 0;
  std::int64_t steps = 0;
  for (auto _ : state) {
    service::EventLogWriter log(tmp_log_path());
    ticks += drive(fx, config, &log);
    steps += config.period.hours() * config.steps_per_hour;
  }
  state.SetItemsProcessed(ticks);  // items/s = ticks ingested per second
  state.counters["steps_per_s"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
  std::remove(tmp_log_path().c_str());
}
BENCHMARK(BM_LiveIngest)->Arg(24)->Arg(96)->Unit(benchmark::kMillisecond);

void BM_LogReplay(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  const service::LiveConfig config = live_config(fx, state.range(0));
  {
    service::EventLogWriter log(tmp_log_path());
    (void)drive(fx, config, &log);
    log.close();
  }
  std::int64_t steps = 0;
  for (auto _ : state) {
    const core::RunResult result = service::replay_file(fx, tmp_log_path());
    benchmark::DoNotOptimize(result.total_cost.value());
    steps += config.period.hours() * config.steps_per_hour;
  }
  state.SetItemsProcessed(steps);  // items/s = steps replayed per second
  std::remove(tmp_log_path().c_str());
}
BENCHMARK(BM_LogReplay)->Arg(24)->Arg(96)->Unit(benchmark::kMillisecond);

void BM_EventLogScan(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  const service::LiveConfig config = live_config(fx, 96);
  {
    service::EventLogWriter log(tmp_log_path());
    (void)drive(fx, config, &log);
    log.close();
  }
  std::int64_t frames = 0;
  for (auto _ : state) {
    service::EventLogReader reader(tmp_log_path());
    while (const auto record = reader.next()) {
      benchmark::DoNotOptimize(record->index());
      ++frames;
    }
  }
  state.SetItemsProcessed(frames);  // items/s = frames decoded per second
  std::remove(tmp_log_path().c_str());
}
BENCHMARK(BM_EventLogScan)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
