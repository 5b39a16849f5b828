#ifndef CEBIS_NET_SERVER_H
#define CEBIS_NET_SERVER_H

// The live service's network front end: one TCP server that
//
//   - ACCEPTS an RTO-style settlement feed on the ingest port: a
//     SessionMeta frame first (the server builds the Fixture and
//     LiveEngine from it - the server itself is generic), then price
//     ticks and workload steps in the event log's frame encoding, then
//     FeedEnd. Every ingested record lands in the session's EventLog
//     BEFORE it takes effect (the LiveEngine writes it as it ingests),
//     so replay-equals-live holds for socket-fed sessions exactly as
//     for in-process ones.
//
//   - ADVANCES the simulation whenever the tick stream has sealed what
//     the next buffered step needs (the same gate as
//     LiveEngine::advance; steps arriving ahead of their prices are
//     buffered, never dropped).
//
//   - PUSHES per-step frames to N subscribers via a SubscriberHub
//     (RoutingDecision + Telemetry + SealHeadroom; bounded queues,
//     drop-oldest) and serves GET /metrics as Prometheus text.
//
// Failure discipline: a torn frame, CRC mismatch, unknown type,
// out-of-order tick or malformed record CLOSES the connection with the
// byte offset logged (strict reader, mirroring EventLogError) - but
// the session survives, and a reconnecting feeder is handed an
// IngestStatus resume cursor (steps advanced + per-hub next interval)
// so it resumes without duplicating anything. TCP gives the transport
// reliability; the cursor gives restart idempotence.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "obs/taps.h"
#include "service/event_log.h"

namespace cebis::core {
struct Fixture;
}

namespace cebis::net {

struct ServerOptions {
  std::uint16_t ingest_port = 0;     ///< 0 = ephemeral
  std::uint16_t subscribe_port = 0;  ///< 0 = ephemeral
  std::uint16_t http_port = 0;       ///< 0 = ephemeral
  bool enable_http = true;

  /// Destination of the session's event log (required; the replay
  /// check and audit trail live here).
  std::string log_path;

  /// Per-frame read deadline: a feeder that leaves the next frame
  /// unfinished this long, silent or trickling, is disconnected (it
  /// reconnects and resumes via the status cursor). Negative: no
  /// deadline.
  int read_timeout_ms = 5000;
  std::size_t subscriber_queue_capacity = 256;

  /// Forwarded to LiveConfig (the rest of the session config arrives
  /// in the SessionMeta frame).
  bool shadow_baseline = true;

  /// Pre-built fixture to serve sessions from (not owned; must outlive
  /// the server). A SessionMeta whose seed does not match its seed is a
  /// protocol error. Null: the server builds Fixture::make(meta.seed)
  /// per session - correct but ~seconds of synthesis; embedders and
  /// benches that know the seed up front skip it with this.
  const core::Fixture* fixture = nullptr;

  /// Print connection/protocol events to stderr.
  bool verbose = false;

  obs::Taps taps;
};

struct ServerReport {
  /// The finished session's result; unset when serve() was stop()ped
  /// before the feed completed.
  std::optional<core::RunResult> result;
  service::SessionMeta meta;  ///< meaningful once a session was opened
  std::int64_t ticks_ingested = 0;
  std::int64_t steps_ingested = 0;
  std::int64_t ingest_connections = 0;
  /// Connections dropped for a wire/protocol defect (each one logged).
  std::int64_t protocol_errors = 0;
  std::int64_t subscribers_connected = 0;
  std::int64_t subscriber_dropped_frames = 0;
  /// Protocol/connection events, oldest first (capped).
  std::vector<std::string> events;
};

class Server {
 public:
  /// Binds all listeners (ports resolve immediately - see the
  /// *_port() accessors) and starts the subscriber/HTTP threads.
  /// Throws NetError when a port cannot be bound, std::invalid_argument
  /// on an empty log_path.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t ingest_port() const noexcept;
  [[nodiscard]] std::uint16_t subscribe_port() const noexcept;
  /// 0 when HTTP is disabled.
  [[nodiscard]] std::uint16_t http_port() const noexcept;

  /// Serves ingest connections (one at a time - a settlement feed is a
  /// single logical stream; reconnects resume it) until the feed
  /// completes or stop() is called. Returns the session report.
  [[nodiscard]] ServerReport serve();

  /// Thread-safe and idempotent: wakes all three accept loops and joins
  /// the subscriber and HTTP threads. An idle serve() returns at once,
  /// one inside a feed connection within read_timeout_ms.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cebis::net

#endif  // CEBIS_NET_SERVER_H
