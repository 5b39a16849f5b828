// Microbenchmarks (google-benchmark): network transport throughput.
//
// BM_IngestThroughput drives a complete socket-fed session - FeedClient
// over loopback TCP into a real net::Server (frame encode, CRC, kernel
// round trip, strict decode, event logging, seal-gated stepping) - and
// reports ticks/second; the in-process ceiling is BM_LiveIngest in
// bench_perf_service, so the gap between the two is the wire tax.
// BM_SubscriberFanout measures the SubscriberHub pushing decision
// frames to 8 draining subscribers and reports delivered frames/second.
// Both run on several threads, so both rates are wall-clock
// (UseRealTime): the main thread's CPU time misses the serve, writer
// and reader threads doing the work.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/workload.h"
#include "net/feed_client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/subscriber_hub.h"
#include "net/wire.h"
#include "service/event_log.h"

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
           "/cebis_bench_net.eventlog";
  }();
  return path;
}

struct SessionFeed {
  service::SessionMeta meta;
  std::vector<service::PriceTickRecord> ticks;
  std::vector<service::WorkloadStepRecord> steps;
};

/// The feed cebis_feed would synthesize over the first `hours`,
/// materialized up front so the timed loop measures transport + ingest.
SessionFeed make_feed(const core::Fixture& fx, std::int64_t hours) {
  SessionFeed feed;
  const Period trace = fx.trace.period();
  const Period window{trace.begin, trace.begin + hours};
  const core::TraceWorkload demand(fx.trace, fx.allocation);

  feed.meta.seed = fx.seed;
  feed.meta.router = "price-aware";
  feed.meta.period = window;
  feed.meta.steps_per_hour = demand.steps_per_hour();
  feed.meta.samples_per_hour = 12;

  const int sph = feed.meta.samples_per_hour;
  const Period priced = core::priced_window(window, feed.meta.delay_hours,
                                            feed.meta.delay_steps, sph);
  const market::PriceSet& prices = fx.prices_covering(priced, sph);
  std::vector<HubId> hubs;
  for (const core::Cluster& c : fx.clusters) {
    bool seen = false;
    for (const HubId h : hubs) seen = seen || h.index() == c.hub.index();
    if (!seen) hubs.push_back(c.hub);
  }
  for (std::int64_t interval = priced.begin * sph;
       interval < window.end * sph; ++interval) {
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : hubs) {
      feed.ticks.push_back({hub, interval, prices.rt_at(hub, hour, sub).value()});
    }
  }
  const std::int64_t steps = window.hours() * feed.meta.steps_per_hour;
  std::vector<double> row(demand.state_count(), 0.0);
  for (std::int64_t j = 0; j < steps; ++j) {
    demand.demand(j, row);
    feed.steps.push_back({j, row});
  }
  return feed;
}

void BM_IngestThroughput(benchmark::State& state) {
  const core::Fixture& fx = fixture();
  const SessionFeed feed = make_feed(fx, state.range(0));
  std::int64_t ticks = 0;
  std::int64_t steps = 0;
  for (auto _ : state) {
    net::ServerOptions options;
    options.log_path = tmp_log_path();
    options.fixture = &fx;  // measure transport, not fixture synthesis
    options.shadow_baseline = false;
    net::Server server(options);
    net::ServerReport report;
    std::thread serving([&] { report = server.serve(); });
    net::FeedClientOptions client_options;
    client_options.port = server.ingest_port();
    net::FeedClient client(client_options);
    (void)client.run(feed.meta, feed.ticks, feed.steps);
    serving.join();
    benchmark::DoNotOptimize(report.result->total_cost.value());
    ticks += report.ticks_ingested;
    steps += report.steps_ingested;
  }
  state.SetItemsProcessed(ticks);  // items/s = ticks ingested per second
  state.counters["steps_per_s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
  std::remove(tmp_log_path().c_str());
}
BENCHMARK(BM_IngestThroughput)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SubscriberFanout(benchmark::State& state) {
  const int kSubscribers = 8;
  net::SubscriberHubOptions options;
  options.queue_capacity = 1024;
  net::SubscriberHub hub(options);

  // 8 draining subscribers, alive across all iterations; each reads
  // frames until the hub closes its socket at stop().
  std::vector<std::thread> readers;
  for (int i = 0; i < kSubscribers; ++i) {
    readers.emplace_back([port = hub.port()] {
      try {
        net::Socket sock = net::connect_to("127.0.0.1", port, 2000);
        net::write_stream_header(sock, net::Channel::kSubscribe, 2000);
        net::FrameReader reader(sock);
        while (reader.next(10'000).has_value()) {
        }
      } catch (const net::NetError&) {
      } catch (const service::EventLogError&) {
      }
    });
  }
  while (hub.subscriber_count() < static_cast<std::size_t>(kSubscribers)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A realistic per-step frame: a 10-cluster routing decision.
  service::RoutingDecisionRecord decision;
  decision.step = 0;
  decision.cluster_load.assign(10, 1234.5);
  const std::vector<std::uint8_t> payload =
      service::encode_record(service::EventRecord{decision});
  const std::uint8_t type =
      static_cast<std::uint8_t>(service::RecordType::kRoutingDecision);

  constexpr int kFramesPerIteration = 2000;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    for (int i = 0; i < kFramesPerIteration; ++i) {
      hub.publish(type, payload);
    }
    (void)hub.drain(10'000);
    delivered += static_cast<std::int64_t>(kFramesPerIteration) * kSubscribers;
  }
  // items/s = frames delivered per second across the 8 subscribers
  // (queued drops subtracted - a dropped frame was not delivered).
  state.SetItemsProcessed(delivered - hub.dropped_frames());
  state.counters["dropped_frames"] =
      benchmark::Counter(static_cast<double>(hub.dropped_frames()));
  hub.stop();
  for (std::thread& t : readers) t.join();
}
BENCHMARK(BM_SubscriberFanout)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
