#ifndef CEBIS_NET_FEED_CLIENT_H
#define CEBIS_NET_FEED_CLIENT_H

// The settlement-feed client: streams a session (SessionMeta, price
// ticks, workload steps, FeedEnd) to a net::Server's ingest port in
// the event log's frame encoding.
//
// Reconnection is the client's job: on any connection or write
// failure it backs off EXPONENTIALLY (initial_backoff_ms doubling to
// 2 s), reconnects, and resumes from the server's IngestStatus cursor -
// skipping ticks below each hub's next interval and steps below
// steps_done + steps_buffered. The cursor makes the retry idempotent:
// nothing is ever sent twice into the session, no matter where the
// previous connection died.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/event_log.h"

namespace cebis::net {

struct FeedClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Total connection attempts before run() gives up.
  int max_attempts = 8;
  int initial_backoff_ms = 50;
};

struct FeedReport {
  std::int64_t ticks_sent = 0;
  std::int64_t steps_sent = 0;
  /// Records skipped on resume because the server's cursor already
  /// covered them (0 on a single-connection run).
  std::int64_t records_skipped = 0;
  int connections = 0;
  /// Steps the server had advanced when it acked the feed end.
  std::int64_t final_steps_done = 0;
};

class FeedClient {
 public:
  explicit FeedClient(FeedClientOptions options);

  /// Streams the whole session and waits for the server's completion
  /// ack. `ticks` must be gapless in-order per hub and `steps` in step
  /// order with dense step indices starting at 0 (the event-log
  /// discipline; a RecordedSession read back from a log qualifies).
  /// Throws NetError after max_attempts failed connections.
  [[nodiscard]] FeedReport run(const service::SessionMeta& meta,
                 std::span<const service::PriceTickRecord> ticks,
                 std::span<const service::WorkloadStepRecord> steps);

 private:
  FeedClientOptions options_;
  /// Frames waiting to be sent, encoded in place and reused across
  /// flushes and reconnects.
  std::vector<std::uint8_t> buf_;
};

/// The feed order run() sends: ticks and steps merged chronologically
/// by their END times (stable - per-hub tick order and step order are
/// preserved), ticks first on a tie. Steps whose prices settle later
/// than the step (e.g. hourly ticks under 5-minute steps) are simply
/// buffered by the server until sealed.
[[nodiscard]] std::vector<service::EventRecord> interleave_feed(
    const service::SessionMeta& meta,
    std::span<const service::PriceTickRecord> ticks,
    std::span<const service::WorkloadStepRecord> steps);

}  // namespace cebis::net

#endif  // CEBIS_NET_FEED_CLIENT_H
