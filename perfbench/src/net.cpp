// The net path: net::Server on loopback with a pre-built fixture, a
// metrics registry and /metrics attached (as cebis_serve runs it), and
// the live path's session config, in three phases:
//
//   (a) paced, an open loop: interval k's 9 ticks and its step are due
//       at t0 + k / 250 s; two subscribers time every RoutingDecision
//       from its due time. The schedule starts once the
//       cebis_net_subscribers gauge reads 2.
//   (b) backfill: one FeedClient::run of the full feed, as fast as the
//       server accepts it, no subscribers.
//   (c) day sessions: consecutive one-day sessions, each a fresh Server
//       fed by FeedClient, scraped once on /metrics and destroyed.
//
// (a) isolates thread hand-offs on the decision path, (b) per-frame
// socket, codec and log cost, (c) server open/close.

#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <thread>
#include <variant>

#include "bench.h"
#include "net/feed_client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "service/replay.h"

namespace perfbench {

namespace {

using namespace cebis;

constexpr double kPacedIntervalsPerSecond = 250.0;
constexpr int kSubscribers = 2;
/// Day sessions per net unit (each takes ~130 ms, most of it the
/// server's accept-poll wait on close).
constexpr int kDaySessions = 2;
/// The open loop measures the server only while the generator keeps to
/// its schedule: a paced session of the traced run whose send-lag p99
/// exceeds this is flagged invalid and its latencies are not reported,
/// and a traced run with no valid paced session is refused.
constexpr double kMaxLagP99Us = 20'000.0;
constexpr int kIoTimeoutMs = 10'000;
constexpr const char* kLoopback = "127.0.0.1";

/// A pre-encoded frame of the paced feed.
struct WireFrame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// The paced session's frames: the SessionMeta and the ticks of the
/// routing-delay margin, sent before the schedule starts, then one group
/// per step (its interval's ticks, then the step).
struct PacedFeed {
  std::vector<WireFrame> prefix;
  std::vector<std::vector<WireFrame>> groups;
  std::int64_t prefix_ticks = 0;
};

WireFrame encode(const service::EventRecord& record) {
  return {static_cast<std::uint8_t>(service::record_type(record)),
          service::encode_record(record)};
}

PacedFeed make_paced_feed(const SessionFeed& feed) {
  PacedFeed paced;
  paced.prefix.push_back(encode(feed.meta));
  const std::int64_t step0_interval =
      feed.meta.period.begin * feed.meta.samples_per_hour;
  std::vector<WireFrame> group;
  for (const service::EventRecord& record :
       net::interleave_feed(feed.meta, feed.ticks, feed.steps)) {
    const auto* tick = std::get_if<service::PriceTickRecord>(&record);
    if (tick != nullptr && tick->interval < step0_interval) {
      paced.prefix.push_back(encode(record));
      ++paced.prefix_ticks;
      continue;
    }
    group.push_back(encode(record));
    if (tick == nullptr) {  // the step closes its group
      paced.groups.push_back(std::move(group));
      group.clear();
    }
  }
  return paced;
}

/// Server options shared by the three phases: ephemeral loopback ports,
/// the pre-built fixture, and a metrics registry served on /metrics.
net::ServerOptions server_options(const Context& ctx,
                                  obs::MetricsRegistry& registry,
                                  const std::string& log_path) {
  net::ServerOptions options;
  options.log_path = log_path;
  options.fixture = ctx.fixture;
  options.enable_http = true;
  options.taps.metrics = &registry;
  return options;
}

/// Runs Server::serve on its own thread. join() returns the report or
/// rethrows what serve() threw; destruction without join() stops the
/// server first so the thread always ends.
class ServeThread {
 public:
  ServeThread(net::Server& server, Tracing* tracing)
      : server_(server), thread_([this, tracing] {
          SpanLog* log = tracing != nullptr ? tracing->thread_log() : nullptr;
          try {
            const Scope scope(log, "net.serve");
            report_ = server_.serve();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~ServeThread() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }
  ServeThread(const ServeThread&) = delete;
  ServeThread& operator=(const ServeThread&) = delete;

  net::ServerReport join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return std::move(report_);
  }

 private:
  net::Server& server_;
  net::ServerReport report_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the members it uses
};

struct Receipt {
  std::int64_t step = 0;
  std::int64_t received_ns = 0;
  std::vector<double> cluster_load;
};

/// One streaming subscriber on its own thread and connection: records
/// the arrival time and content of every RoutingDecision until FeedEnd.
class Subscriber {
 public:
  Subscriber(std::uint16_t port, Tracing* tracing)
      : thread_([this, port, tracing] { run(port, tracing); }) {}
  ~Subscriber() {
    if (thread_.joinable()) thread_.join();
  }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  /// Waits for the stream to end; the receipts, or the failure.
  const std::vector<Receipt>& join() {
    thread_.join();
    check(error_.empty(), "subscriber failed: " + error_);
    return receipts_;
  }

 private:
  void run(std::uint16_t port, Tracing* tracing) {
    SpanLog* log = tracing != nullptr ? tracing->thread_log() : nullptr;
    try {
      std::optional<net::Socket> sock;
      {
        const Scope scope(log, "net.connect");
        sock.emplace(net::connect_to(kLoopback, port, kIoTimeoutMs));
        net::write_stream_header(*sock, net::Channel::kSubscribe, kIoTimeoutMs);
      }
      net::FrameReader reader(*sock);
      for (;;) {
        std::optional<net::Frame> frame = reader.next(kIoTimeoutMs);
        const std::int64_t received = now_ns();
        if (!frame || frame->type == static_cast<std::uint8_t>(
                                        net::NetFrameType::kFeedEnd)) {
          return;
        }
        if (frame->type !=
            static_cast<std::uint8_t>(service::RecordType::kRoutingDecision)) {
          continue;
        }
        service::EventRecord record;
        {
          const Scope scope(log, "service.decode");
          record = service::decode_record(frame->type, frame->payload,
                                          reader.offset());
        }
        auto& decision = std::get<service::RoutingDecisionRecord>(record);
        receipts_.push_back(
            {decision.step, received, std::move(decision.cluster_load)});
      }
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  std::vector<Receipt> receipts_;
  std::string error_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Operation counts the three phases add up.
struct NetTally {
  std::int64_t expected_receipts = 0;
  std::int64_t received = 0;
  std::int64_t dropped_frames = 0;
  std::int64_t protocol_errors = 0;
  std::int64_t feeds = 0;
  std::int64_t reconnects = 0;

  void add_server(const net::ServerReport& report) {
    dropped_frames += report.subscriber_dropped_frames;
    protocol_errors += report.protocol_errors;
  }
  void add_feed(const net::FeedReport& report) {
    ++feeds;
    if (report.connections > 1) reconnects += report.connections - 1;
  }
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void wait_for(const obs::MetricsRegistry& registry, const char* name,
              double value, const char* what) {
  const std::int64_t deadline =
      now_ns() + std::int64_t{kIoTimeoutMs} * 1'000'000;
  while (registry.snapshot().value_or(name, 0.0) < value) {
    check(now_ns() < deadline, std::string("timed out waiting for ") + what);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void write(net::Socket& sock, const WireFrame& frame) {
  net::write_frame(sock, frame.type, frame.payload, kIoTimeoutMs);
}

/// GET /metrics on `port`, as a Prometheus scraper sends it; returns the
/// whole response (the server closes the connection after it).
std::string scrape_metrics(std::uint16_t port) {
  net::Socket sock = net::connect_to(kLoopback, port, kIoTimeoutMs);
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  sock.write_all(request.data(), request.size(), kIoTimeoutMs);
  std::string response;
  char buf[4096];
  for (;;) {
    const std::size_t n = sock.read_some(buf, sizeof(buf), kIoTimeoutMs);
    if (n == 0) return response;
    response.append(buf, n);
  }
}

struct PacedResult {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  double feed_ack_ms = 0.0;
};

/// Phase (a). The feeder runs on the calling thread.
PacedResult paced_session(const Context& ctx, const PacedFeed& feed,
                          NetTally& tally, SpanLog* log) {
  const std::string log_path = ctx.run_dir + "/net-paced.eventlog";
  Tracing* const helpers = log != nullptr ? ctx.tracing : nullptr;
  obs::MetricsRegistry registry;
  std::optional<net::Server> server;
  {
    const Scope scope(log, "net.server_open");
    server.emplace(server_options(ctx, registry, log_path));
  }
  // Declared before the serve thread, so on an early exit the server
  // stops (closing the subscriber sockets) before the subscribers join.
  std::vector<std::unique_ptr<Subscriber>> subscribers;
  ServeThread serving(*server, helpers);
  {
    const Scope scope(log, "bench.subscribe");
    for (int i = 0; i < kSubscribers; ++i) {
      subscribers.push_back(
          std::make_unique<Subscriber>(server->subscribe_port(), helpers));
    }
    wait_for(registry, "cebis_net_subscribers", kSubscribers,
             "both subscribers to register");
  }

  std::optional<net::Socket> sock;
  {
    const Scope scope(log, "net.connect");
    sock.emplace(
        net::connect_to(kLoopback, server->ingest_port(), kIoTimeoutMs));
    net::write_stream_header(*sock, net::Channel::kIngest, kIoTimeoutMs);
  }
  net::FrameReader reader(*sock);
  const auto status_type =
      static_cast<std::uint8_t>(net::NetFrameType::kIngestStatus);
  {
    const Scope scope(log, "net.read_status");
    const std::optional<net::Frame> status = reader.next(kIoTimeoutMs);
    check(status && status->type == status_type,
          "paced feeder got no IngestStatus on connect");
  }
  for (const WireFrame& frame : feed.prefix) {
    const Scope scope(log, "net.write_frame");
    write(*sock, frame);
  }
  {
    // Start the clock once the server has ingested the margin, so the
    // first due times do not include session construction.
    const Scope scope(log, "bench.wait_prefix");
    wait_for(registry, "cebis_live_price_ticks_total",
             static_cast<double>(feed.prefix_ticks), "the prefix ticks");
  }

  PacedResult out;
  const double period_ns = 1e9 / kPacedIntervalsPerSecond;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const auto due_ns = [t0, period_ns](std::int64_t k) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
  };
  for (std::size_t k = 0; k < feed.groups.size(); ++k) {
    const auto step = static_cast<std::int64_t>(k);
    const std::int64_t due = due_ns(step);
    {
      // Spin rather than sleep: a sleeping vCPU can take milliseconds to
      // be rescheduled, which would read as server latency.
      const Scope scope(log, "bench.pace_wait", step);
      while (now_ns() < due) {
      }
    }
    out.lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
    for (const WireFrame& frame : feed.groups[k]) {
      const Scope scope(log, "net.write_frame", step);
      write(*sock, frame);
    }
  }
  {
    const Scope scope(log, "net.feed_ack");
    const std::int64_t sent = now_ns();
    net::write_frame(*sock,
                     static_cast<std::uint8_t>(net::NetFrameType::kFeedEnd),
                     {}, kIoTimeoutMs);
    const std::optional<net::Frame> ack = reader.next(kIoTimeoutMs);
    out.feed_ack_ms = static_cast<double>(now_ns() - sent) / 1e6;
    check(ack && ack->type == status_type &&
              net::decode_ingest_status(ack->payload, 0).complete,
          "paced feed was not acked as complete");
  }
  net::ServerReport report;
  std::vector<const std::vector<Receipt>*> receipts;
  {
    const Scope scope(log, "bench.join");
    report = serving.join();
    for (const auto& sub : subscribers) receipts.push_back(&sub->join());
  }
  {
    const Scope scope(log, "net.server_close");
    server.reset();
  }
  tally.add_server(report);

  check(report.result.has_value(), "paced session did not complete");
  const service::RecordedSession session =
      check_replay(*ctx.fixture, log_path, *report.result, feed.groups.size(),
                   "paced", log)
          .session;
  const Scope scope(log, "bench.check");
  const auto steps = static_cast<std::int64_t>(feed.groups.size());
  tally.expected_receipts += steps * kSubscribers;
  for (const std::vector<Receipt>* sub : receipts) {
    tally.received += static_cast<std::int64_t>(sub->size());
    for (const Receipt& r : *sub) {
      check(r.step >= 0 && r.step < steps &&
                same_bits(r.cluster_load,
                          session.decisions[static_cast<std::size_t>(r.step)]
                              .cluster_load),
            "subscriber decision for step " + std::to_string(r.step) +
                " differs from the log");
      out.latency_us.push_back(
          static_cast<double>(r.received_ns - due_ns(r.step)) / 1e3);
    }
  }
  return out;
}

/// One FeedClient-fed session on a fresh server, scraped once on /metrics
/// after the feed. Returns the feed's wall time (connect to FeedEnd ack);
/// `session_ns`, when given, receives the time from Server construction
/// to its destructor returning.
///
/// The scrape also fixes when the /metrics listener's accept poll ends:
/// the destructor waits out the subscriber hub's poll and then the HTTP
/// listener's, and without a request the two polls start together, so
/// whether the second one has already re-armed for another 100 ms when
/// its stop flag is set is a thread-start race (sessions then read ~100
/// or ~200 ms at random). After a scrape the HTTP poll ends 100 ms after
/// it, always last.
double fed_session(const Context& ctx, const SessionFeed& feed,
                   const char* what, NetTally& tally, SpanLog* log,
                   std::int64_t* session_ns) {
  const std::string log_path = ctx.run_dir + "/net-" + what + ".eventlog";
  obs::MetricsRegistry registry;
  const std::int64_t t0 = now_ns();
  std::optional<net::Server> server;
  {
    const Scope scope(log, "net.server_open");
    server.emplace(server_options(ctx, registry, log_path));
  }
  ServeThread serving(*server, log != nullptr ? ctx.tracing : nullptr);
  net::FeedClientOptions client;
  client.host = kLoopback;
  client.port = server->ingest_port();
  const std::int64_t feed_t0 = now_ns();
  net::FeedReport fed;
  {
    const Scope scope(log, "net.feed_run");
    fed = net::FeedClient(client).run(feed.meta, feed.ticks, feed.steps);
  }
  const double feed_s = seconds_since(feed_t0);
  net::ServerReport report;
  {
    const Scope scope(log, "bench.join");
    report = serving.join();
  }
  std::string scraped;
  {
    const Scope scope(log, "net.scrape");
    scraped = scrape_metrics(server->http_port());
  }
  {
    const Scope scope(log, "net.server_close");
    server.reset();
  }
  if (session_ns != nullptr) *session_ns = now_ns() - t0;
  tally.add_server(report);
  tally.add_feed(fed);
  check(report.result.has_value(),
        std::string(what) + " session did not complete");
  // Every frame the feeder sent: SessionMeta, ticks, steps and FeedEnd.
  const std::string frames =
      std::to_string(fed.ticks_sent + fed.steps_sent + 2);
  check(scraped.rfind("HTTP/1.1 200 OK", 0) == 0 &&
            scraped.find("\ncebis_net_ingest_frames_total " + frames +
                         "\n") != std::string::npos,
        std::string(what) + " session's /metrics does not report the " +
            frames + " frames fed");
  (void)check_replay(*ctx.fixture, log_path, *report.result, feed.steps.size(),
                     what, log);
  return feed_s;
}

struct NetInputs {
  PacedFeed paced;
  SessionFeed backfill;
  std::vector<SessionFeed> days;
};

NetInputs make_inputs(const Context& ctx) {
  const Period trace = ctx.fixture->trace.period();
  NetInputs in;
  // The backfill window first: it covers every later window, so the
  // 5-minute prices are materialized once rather than grown day by day.
  in.backfill = make_feed(*ctx.fixture, session_period(ctx));
  in.paced = make_paced_feed(
      make_feed(*ctx.fixture, Period{trace.begin, trace.begin + 24}));
  const std::int64_t days = ctx.tiny ? kDaySessions : trace.hours() / 24;
  for (std::int64_t d = 0; d < days; ++d) {
    const Period day{trace.begin + 24 * d, trace.begin + 24 * (d + 1)};
    in.days.push_back(make_feed(*ctx.fixture, day));
  }
  return in;
}

struct NetPass {
  PacedResult paced;
  double backfill_ticks_per_s = 0.0;
  std::vector<double> session_ms;
};

/// One repetition of the three phases; `day` picks the first day session.
NetPass net_pass(const Context& ctx, const NetInputs& in, std::size_t day,
                 NetTally& tally, SpanLog* log) {
  NetPass pass;
  pass.paced = paced_session(ctx, in.paced, tally, log);
  const double feed_s =
      fed_session(ctx, in.backfill, "backfill", tally, log, nullptr);
  pass.backfill_ticks_per_s =
      static_cast<double>(in.backfill.ticks.size()) / feed_s;
  for (int s = 0; s < kDaySessions; ++s) {
    std::int64_t session_ns = 0;
    const std::size_t d = (day + static_cast<std::size_t>(s)) % in.days.size();
    (void)fed_session(ctx, in.days[d], "day", tally, log, &session_ns);
    pass.session_ms.push_back(static_cast<double>(session_ns) / 1e6);
  }
  return pass;
}

/// Whether a paced session kept to its schedule; an invalid one is
/// noted on stderr.
bool on_schedule(const PacedResult& paced) {
  const double p99 = percentile(paced.lag_us, 99.0);
  if (p99 <= kMaxLagP99Us) return true;
  std::fprintf(stderr,
               "perfbench: paced session flagged invalid: generator lag p99 "
               "%.0f us exceeds the %.0f us bound; its latencies are not "
               "reported\n",
               p99, kMaxLagP99Us);
  return false;
}

/// Attempted: expected decision receipts and feeds. Failed: receipts
/// that never arrived, frames the hub dropped, connections closed for a
/// protocol error, and feeder reconnects.
void count(const NetTally& tally, Report& report) {
  report.attempted += tally.expected_receipts + tally.feeds;
  report.failed += (tally.expected_receipts - tally.received) +
                   tally.dropped_frames + tally.protocol_errors +
                   tally.reconnects;
}

/// The service workload's job is a one-day session; the paced and
/// backfill phases run for their traffic and output checks.
class NetMeasure final : public Measure {
 public:
  explicit NetMeasure(const Context& ctx) : ctx_(ctx), in_(make_inputs(ctx)) {}

  void unit(Report& report) override {
    NetTally tally;
    const NetPass pass = net_pass(ctx_, in_, day_, tally, nullptr);
    day_ += kDaySessions;
    count(tally, report);
    session_ms_.insert(session_ms_.end(), pass.session_ms.begin(),
                       pass.session_ms.end());
  }

  void finish(Report& report) override {
    report.set("job_ms", median(session_ms_), "ms");
  }

 private:
  const Context& ctx_;
  NetInputs in_;
  std::size_t day_ = 0;
  std::vector<double> session_ms_;
};

}  // namespace

std::unique_ptr<Measure> net_measure(const Context& ctx) {
  return std::make_unique<NetMeasure>(ctx);
}

TracedPath trace_net(const Context& ctx, Report& report) {
  const NetInputs in = make_inputs(ctx);
  NetTally tally;
  std::int64_t t0 = now_ns();
  const NetPass reference = net_pass(ctx, in, 0, tally, nullptr);
  const std::int64_t untraced_ns = now_ns() - t0;

  SpanLog& log = ctx.tracing->main();
  const std::size_t first = log.size();
  t0 = now_ns();
  const NetPass pass = net_pass(ctx, in, 0, tally, &log);
  const TracedPath traced{first, log.size(), now_ns() - t0, untraced_ns};
  count(tally, report);

  // Backfill throughput moves with the shared host's speed by more than
  // an end-to-end bound allows, so it is reported here, from the
  // untraced reference pass.
  report.set("net_backfill_ticks_per_s", reference.backfill_ticks_per_s,
             "ticks/s");
  std::map<std::string, SpanStats> spans;
  collect_into(spans, log, first, log.size());
  const auto ms = [](double ns) { return ns / 1e6; };
  report.set("net.server_open_ms", ms(median(spans["net.server_open"].self_ns)),
             "ms");
  report.set("net.server_close_ms",
             ms(median(spans["net.server_close"].self_ns)), "ms");
  report.set("net.feed_ack_ms", pass.paced.feed_ack_ms, "ms");
  report.set("net.write_frame_ns", median(spans["net.write_frame"].self_ns),
             "ns");
  report.set("net.dropped_frames", static_cast<double>(tally.dropped_frames),
             "count");
  report.set("net.protocol_errors", static_cast<double>(tally.protocol_errors),
             "count");
  report.set("net.reconnects", static_cast<double>(tally.reconnects), "count");
  // Decision latency through the socket is mostly thread wake-ups, whose
  // cost on the shared host moves by a quarter for minutes at a time. It
  // pools both passes' on-schedule receipts.
  std::vector<double> latency_us;
  for (const PacedResult* paced : {&reference.paced, &pass.paced}) {
    if (!on_schedule(*paced)) continue;
    latency_us.insert(latency_us.end(), paced->latency_us.begin(),
                      paced->latency_us.end());
  }
  if (latency_us.empty()) {
    throw InvalidRun(
        "both paced sessions ran behind schedule; net decision latency not "
        "reported");
  }
  report.set("net_decision_p50_us", percentile(latency_us, 50.0), "us");
  report.set("net_decision_p99_us", percentile(latency_us, 99.0), "us");
  report.set("bench.generator_lag_p50_us", percentile(pass.paced.lag_us, 50.0),
             "us");
  report.set("bench.generator_lag_p99_us", percentile(pass.paced.lag_us, 99.0),
             "us");
  return traced;
}

}  // namespace perfbench
