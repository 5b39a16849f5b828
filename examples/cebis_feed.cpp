// The settlement-feed client: synthesizes a session from the fixture
// (the same window-invariant market and 24-day trace every batch
// scenario sees) and streams it to a cebis_serve ingest port - the
// SessionMeta first, then price ticks and demand steps merged in
// chronological order, then FeedEnd, waiting for the server's
// completion ack.
//
// Disconnections are survived by design: the client reconnects with
// exponential backoff and resumes from the server's cursor, so
// restarting cebis_serve's network path mid-feed (or yanking the
// connection) re-sends only what the session has not ingested.

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/workload.h"
#include "net/feed_client.h"
#include "net/socket.h"
#include "net_flags.h"

namespace {

constexpr const char* kUsage =
    "usage: cebis_feed --port N [flags]\n"
    "  --port N              server ingest port (required)\n"
    "  --host ADDR           server address (default 127.0.0.1)\n"
    "  --hours N             window length in hours (default 48)\n"
    "  --seed N              fixture seed (default 2009)\n"
    "  --router NAME         routing scheme (default price-aware)\n"
    "  --samples-per-hour N  settlement cadence (default 12; the demand\n"
    "                        cadence is the trace's native 5-minute grid)\n"
    "  --max-attempts N      connection attempts before giving up\n"
    "                        (default 8)\n"
    "  --backoff-ms N        initial reconnect backoff, doubling per\n"
    "                        failure (default 50)\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace cebis;
  examples::FlagParser flags(argc, argv, kUsage);
  net::FeedClientOptions options;
  const std::int64_t port = flags.integer("--port", 0);
  options.host = flags.str("--host", "127.0.0.1");
  const std::int64_t hours = flags.integer("--hours", 48);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.integer("--seed", 2009));
  const std::string router = flags.str("--router", "price-aware");
  const int samples_per_hour =
      static_cast<int>(flags.integer("--samples-per-hour", 12));
  options.max_attempts = static_cast<int>(flags.integer("--max-attempts", 8));
  options.initial_backoff_ms =
      static_cast<int>(flags.integer("--backoff-ms", 50));
  flags.finish();
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "error: --port must be 1..65535\n\n%s", kUsage);
    return 2;
  }
  if (hours <= 0 || samples_per_hour < 1) {
    std::fprintf(stderr,
                 "error: --hours and --samples-per-hour must be positive"
                 "\n\n%s",
                 kUsage);
    return 2;
  }
  options.port = static_cast<std::uint16_t>(port);

  std::printf("building fixture (seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  const core::Fixture fixture = core::Fixture::make(seed);
  const Period trace = fixture.trace.period();
  const Period window{trace.begin, std::min(trace.begin + hours, trace.end)};

  const core::TraceWorkload demand_feed(fixture.trace, fixture.allocation);
  const int steps_per_hour = demand_feed.steps_per_hour();

  service::SessionMeta meta;
  meta.seed = seed;
  meta.router = router;
  meta.period = window;
  meta.steps_per_hour = steps_per_hour;
  meta.samples_per_hour = samples_per_hour;

  // The synthesized market doubles as the settlement feed (the
  // generator is window-invariant - the server's replay sees the same
  // hours), the trace as the demand feed.
  const Period priced = core::priced_window(window, meta.delay_hours,
                                            meta.delay_steps, samples_per_hour);
  const market::PriceSet& prices =
      fixture.prices_covering(priced, samples_per_hour);
  std::vector<HubId> hubs;
  for (const core::Cluster& c : fixture.clusters) {
    bool seen = false;
    for (const HubId h : hubs) seen = seen || h.index() == c.hub.index();
    if (!seen) hubs.push_back(c.hub);
  }
  std::vector<service::PriceTickRecord> ticks;
  ticks.reserve(static_cast<std::size_t>(priced.hours()) *
                static_cast<std::size_t>(samples_per_hour) * hubs.size());
  for (std::int64_t interval = priced.begin * samples_per_hour;
       interval < window.end * samples_per_hour; ++interval) {
    const HourIndex hour = interval / samples_per_hour;
    const int sub = static_cast<int>(interval - hour * samples_per_hour);
    for (const HubId hub : hubs) {
      ticks.push_back({hub, interval, prices.rt_at(hub, hour, sub).value()});
    }
  }

  const std::int64_t steps = window.hours() * steps_per_hour;
  std::vector<service::WorkloadStepRecord> demand(
      static_cast<std::size_t>(steps));
  std::vector<double> row(demand_feed.state_count(), 0.0);
  for (std::int64_t j = 0; j < steps; ++j) {
    demand_feed.demand(j, row);
    demand[static_cast<std::size_t>(j)] = {j, row};
  }

  std::printf("feeding %zu ticks + %lld steps to %s:%u...\n", ticks.size(),
              static_cast<long long>(steps), options.host.c_str(),
              options.port);
  net::FeedClient client(options);
  try {
    const net::FeedReport report = client.run(meta, ticks, demand);
    std::printf(
        "feed complete: %lld ticks, %lld steps over %d connection(s), "
        "%lld skipped on resume; server advanced %lld steps\n",
        static_cast<long long>(report.ticks_sent),
        static_cast<long long>(report.steps_sent), report.connections,
        static_cast<long long>(report.records_skipped),
        static_cast<long long>(report.final_steps_done));
    return 0;
  } catch (const net::NetError& e) {
    std::fprintf(stderr, "feed failed: %s\n", e.what());
    return 1;
  }
}
