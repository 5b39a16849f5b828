// The live service's network server.
//
// Listens on three loopback ports (0 = kernel-assigned, announced on
// stdout as `name_port=N` lines):
//
//   ingest     one settlement feed at a time (see cebis_feed): a
//              SessionMeta frame configures the session, then price
//              ticks and demand steps stream in and the simulation
//              advances as the tick stream seals each step's prices.
//              Every input lands in the binary event log BEFORE it
//              takes effect, so the recorded session replays
//              bit-identically (service::replay re-feeds it to a
//              fresh LiveEngine).
//   subscribe  streaming clients get per-step RoutingDecision,
//              Telemetry and SealHeadroom frames (bounded queues,
//              drop-oldest - a slow or killed client never stalls the
//              tick loop).
//   http       GET /metrics, Prometheus text exposition.
//
// A feeder that disconnects (or whose frames arrive torn) is dropped
// with the defect logged; the session stays open and a reconnecting
// feeder resumes from the server's cursor. The server exits after one
// completed feed - with --replay-check it then replays the log and
// fails loudly (exit 1) unless every RunResult field matches
// bit-for-bit.

#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "io/metrics_export.h"
#include "net/server.h"
#include "net_flags.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/replay.h"

namespace {

constexpr const char* kUsage =
    "usage: cebis_serve [flags]\n"
    "  --ingest-port N      feed port (default 0 = kernel-assigned)\n"
    "  --subscribe-port N   subscriber port (default 0)\n"
    "  --http-port N        /metrics port (default 0)\n"
    "  --no-http            disable the /metrics endpoint\n"
    "  --log PATH           event log destination (default\n"
    "                       cebis_session.eventlog)\n"
    "  --metrics-dir DIR    where to drop the final .prom/.json dumps\n"
    "                       (default .)\n"
    "  --read-timeout-ms N  per-frame read deadline (default 5000;\n"
    "                       negative: none)\n"
    "  --queue-cap N        frames buffered per subscriber (default 256)\n"
    "  --no-shadow          skip the shadow baseline (no savings telemetry)\n"
    "  --replay-check       after the feed: replay the log, compare\n"
    "                       bit-for-bit, exit 1 on any mismatch\n"
    "  --quiet              suppress per-connection event logging\n"
    "All ports bind 127.0.0.1. Resolved ports are announced on stdout\n"
    "as ingest_port=N / subscribe_port=N / http_port=N.\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace cebis;
  examples::FlagParser flags(argc, argv, kUsage);
  net::ServerOptions options;
  options.ingest_port =
      static_cast<std::uint16_t>(flags.integer("--ingest-port", 0));
  options.subscribe_port =
      static_cast<std::uint16_t>(flags.integer("--subscribe-port", 0));
  options.http_port =
      static_cast<std::uint16_t>(flags.integer("--http-port", 0));
  options.enable_http = !flags.boolean("--no-http");
  options.log_path = flags.str("--log", "cebis_session.eventlog");
  const std::string metrics_dir = flags.str("--metrics-dir", ".");
  options.read_timeout_ms =
      static_cast<int>(flags.integer("--read-timeout-ms", 5000));
  options.subscriber_queue_capacity =
      static_cast<std::size_t>(flags.integer("--queue-cap", 256));
  options.shadow_baseline = !flags.boolean("--no-shadow");
  const bool replay_check = flags.boolean("--replay-check");
  options.verbose = !flags.boolean("--quiet");
  flags.finish();

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  options.taps = {&metrics, &tracer};

  net::Server server(options);
  std::printf("ingest_port=%u\nsubscribe_port=%u\nhttp_port=%u\n",
              server.ingest_port(), server.subscribe_port(),
              server.http_port());
  std::fflush(stdout);

  const net::ServerReport report = server.serve();
  if (!report.result) {
    std::fprintf(stderr, "stopped before a feed completed\n");
    return 1;
  }
  const core::RunResult& result = *report.result;
  std::printf(
      "session complete: %lld steps, %lld ticks, %lld connection(s), "
      "$%.2f, %.1f MWh\n",
      static_cast<long long>(report.steps_ingested),
      static_cast<long long>(report.ticks_ingested),
      static_cast<long long>(report.ingest_connections),
      result.total_cost.value(), result.total_energy.value());
  std::printf("subscribers: %lld connected, %lld frames dropped\n",
              static_cast<long long>(report.subscribers_connected),
              static_cast<long long>(report.subscriber_dropped_frames));

  io::write_prometheus_file(metrics.snapshot(),
                            metrics_dir + "/cebis_serve.prom");
  tracer.write(metrics_dir + "/cebis_serve_trace.json");

  if (replay_check) {
    std::printf("replaying %s...\n", options.log_path.c_str());
    const core::Fixture fixture = core::Fixture::make(report.meta.seed);
    const core::RunResult replayed =
        service::replay_file(fixture, options.log_path);
    const std::string diff = service::diff_run_results(result, replayed);
    if (!diff.empty()) {
      std::printf("REPLAY MISMATCH: %s\n", diff.c_str());
      return 1;
    }
    std::printf("replay == live: every RunResult field is bit-identical\n");
  }
  return 0;
}
