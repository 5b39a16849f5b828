#include "net/server.h"

#include <atomic>
#include <cstdio>
#include <deque>
#include <utility>

#include "core/experiment.h"
#include "net/http_metrics.h"
#include "net/socket.h"
#include "net/subscriber_hub.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/live_engine.h"

namespace cebis::net {

namespace {

constexpr std::size_t kMaxEvents = 64;
/// Deadline for one write to a feeder or a subscriber, and for the
/// subscribers to drain the feed's tail.
constexpr int kWriteTimeoutMs = 2000;

}  // namespace

struct Server::Impl {
  ServerOptions options;
  Listener ingest_listener;
  SubscriberHub hub;
  std::unique_ptr<HttpMetricsServer> http;
  std::atomic<bool> stopping{false};

  // Session state (all touched only by the serve() thread).
  std::optional<core::Fixture> fixture;
  std::optional<service::EventLogWriter> log;
  std::unique_ptr<service::LiveEngine> live;
  std::deque<std::vector<double>> pending;  // buffered steps, in order
  bool finished = false;
  ServerReport report;

  // The payload buffer every per-step frame is encoded into, reused.
  std::vector<std::uint8_t> payload;

  obs::Counter m_connections;
  obs::Counter m_frames;
  obs::Counter m_protocol_errors;

  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        ingest_listener(options.ingest_port),
        hub(SubscriberHubOptions{
            .port = options.subscribe_port,
            .queue_capacity = options.subscriber_queue_capacity,
            .write_timeout_ms = kWriteTimeoutMs,
            .taps = options.taps,
        }) {
    if (options.log_path.empty()) {
      throw std::invalid_argument("Server: log_path is required");
    }
    if (options.enable_http) {
      http = std::make_unique<HttpMetricsServer>(HttpMetricsOptions{
          .port = options.http_port,
          .registry = options.taps.metrics,
      });
    }
    if (options.taps.metrics != nullptr) {
      obs::MetricsRegistry& reg = *options.taps.metrics;
      m_connections = reg.counter("cebis_net_ingest_connections_total",
                                  "Ingest connections accepted");
      m_frames = reg.counter("cebis_net_ingest_frames_total",
                             "Frames ingested off the feed socket");
      m_protocol_errors = reg.counter(
          "cebis_net_ingest_protocol_errors_total",
          "Ingest connections dropped for a wire or protocol defect");
    }
  }

  void event(const std::string& msg) {
    if (report.events.size() < kMaxEvents) report.events.push_back(msg);
    if (options.verbose) std::fprintf(stderr, "[cebis-serve] %s\n", msg.c_str());
  }

  void protocol_error(const std::string& msg) {
    ++report.protocol_errors;
    m_protocol_errors.add();
    event("protocol error: " + msg + " - closing the connection");
  }

  [[nodiscard]] IngestStatusFrame status() const {
    IngestStatusFrame s;
    s.has_session = live != nullptr;
    s.complete = finished;
    if (live != nullptr) {
      s.steps_done = live->steps_done();
      s.steps_buffered = static_cast<std::int64_t>(pending.size());
      const std::span<const HubId> hubs = live->tracked_hubs();
      const std::span<const std::int64_t> next = live->next_tick_intervals();
      s.cursors.reserve(hubs.size());
      for (std::size_t i = 0; i < hubs.size(); ++i) {
        s.cursors.push_back({static_cast<std::int32_t>(hubs[i].value()),
                             next[i]});
      }
    }
    return s;
  }

  void open_session(const service::SessionMeta& meta) {
    if (options.fixture != nullptr) {
      if (meta.seed != options.fixture->seed) {
        throw std::invalid_argument(
            "SessionMeta seed " + std::to_string(meta.seed) +
            " does not match the server's pre-built fixture (seed " +
            std::to_string(options.fixture->seed) + ")");
      }
    } else {
      fixture.emplace(core::Fixture::make(meta.seed));
    }
    const core::Fixture& fx =
        options.fixture != nullptr ? *options.fixture : *fixture;
    service::LiveConfig cfg;
    static_cast<service::SessionSpec&>(cfg) = meta;
    cfg.shadow_baseline = options.shadow_baseline;
    cfg.taps = options.taps;
    log.emplace(options.log_path, options.taps);
    live = std::make_unique<service::LiveEngine>(fx, cfg, &*log);
    // A feeder may leave the shape unnamed (0); a named shape must match
    // what the fixture builds, as replay() checks it.
    const auto check_shape = [&](std::uint32_t named, std::size_t built,
                                 const char* what) {
      if (named == 0 || named == built) return;
      live.reset();
      log.reset();
      throw std::invalid_argument("SessionMeta names " +
                                  std::to_string(named) + " " + what +
                                  ", the fixture builds " +
                                  std::to_string(built));
    };
    check_shape(meta.n_states, live->state_count(), "states");
    check_shape(meta.n_clusters, live->cluster_count(), "clusters");
    report.meta = live->meta();
    event("session opened: router=" + meta.router + " period=[" +
          std::to_string(meta.period.begin) + "," +
          std::to_string(meta.period.end) + ") seed=" +
          std::to_string(meta.seed));
  }

  /// Publishes the just-advanced step's frames to the subscribers.
  void publish_step() {
    const obs::Tracer::Span span =
        obs::maybe_span(options.taps.tracer, "net/publish", "net");
    const std::int64_t done = live->steps_done();
    payload.clear();
    service::encode_record(payload, live->last_decision());
    hub.publish(static_cast<std::uint8_t>(service::RecordType::kRoutingDecision),
                payload);

    const service::LiveTelemetry& tel = live->telemetry();
    TelemetryFrame t;
    t.step = done;
    t.cost_so_far = live->cost_so_far();
    t.energy_so_far = live->energy_so_far();
    t.bill_last = tel.bill_usd_per_step.last();
    t.bill_mean = tel.bill_usd_per_step.mean();
    t.bill_ewma = tel.bill_usd_per_step.ewma();
    t.have_savings = tel.savings_usd_per_step.count() > 0;
    if (t.have_savings) {
      t.savings_last = tel.savings_usd_per_step.last();
      t.savings_mean = tel.savings_usd_per_step.mean();
      t.savings_ewma = tel.savings_usd_per_step.ewma();
    }
    t.plan_rebuilds = live->plan_rebuilds();
    payload.clear();
    encode_telemetry(payload, t);
    hub.publish(static_cast<std::uint8_t>(NetFrameType::kTelemetry), payload);

    SealHeadroomFrame s;
    s.sealed_end = live->sealed_end();
    s.needed_end = live->done() ? s.sealed_end : live->needed_end();
    s.steps_done = done;
    payload.clear();
    encode_seal_headroom(payload, s);
    hub.publish(static_cast<std::uint8_t>(NetFrameType::kSealHeadroom),
                payload);
  }

  /// Advances every buffered step whose prices are sealed.
  void pump() {
    while (live != nullptr && !live->done() && !pending.empty() &&
           live->needed_end() <= live->sealed_end()) {
      live->advance(pending.front());
      pending.pop_front();
      publish_step();
    }
  }

  /// Handles one ingest connection; true when the feed completed.
  bool handle_connection(Socket& sock) {
    const Channel channel =
        read_stream_header(sock, options.read_timeout_ms);
    if (channel != Channel::kIngest) {
      throw WireError("ingest port got a non-ingest channel", 0);
    }
    write_frame(sock, static_cast<std::uint8_t>(NetFrameType::kIngestStatus),
                encode_ingest_status(status()), kWriteTimeoutMs);

    FrameReader reader(sock);
    for (;;) {
      if (stopping.load(std::memory_order_relaxed)) return false;
      const std::int64_t frame_offset = reader.offset();
      std::optional<Frame> frame = read_frame(reader);
      if (!frame) {
        event("feeder disconnected at byte offset " +
              std::to_string(frame_offset));
        return false;
      }
      m_frames.add();
      try {
        if (apply_frame(sock, *frame, frame_offset)) return true;
      } catch (const std::logic_error& e) {
        // A TickAssembler / LiveEngine rejection (out-of-order tick,
        // untracked hub, bad demand shape, unbuildable session).
        throw WireError(e.what(), frame_offset);
      }
    }
  }

  /// The next ingest frame, read and CRC-checked.
  std::optional<Frame> read_frame(FrameReader& reader) {
    const obs::Tracer::Span span =
        obs::maybe_span(options.taps.tracer, "net/read_frame", "net");
    return reader.next(options.read_timeout_ms);
  }

  /// Applies one ingest frame; true when it completed the feed.
  bool apply_frame(Socket& sock, const Frame& frame,
                   std::int64_t frame_offset) {
    if (frame.type == static_cast<std::uint8_t>(NetFrameType::kFeedEnd)) {
      pump();
      if (live == nullptr || !live->done() || !pending.empty()) {
        throw WireError(
            "feed ended before the session completed (" +
                std::to_string(live ? live->steps_done() : 0) + " of " +
                std::to_string(live ? live->steps_total() : 0) +
                " steps advanced, " + std::to_string(pending.size()) +
                " steps waiting on unsealed prices)",
            frame_offset);
      }
      report.result = live->finish();
      log->close();
      finished = true;
      publish_feed_end();
      write_frame(sock, static_cast<std::uint8_t>(NetFrameType::kIngestStatus),
                  encode_ingest_status(status()), kWriteTimeoutMs);
      event("feed complete: " + std::to_string(report.steps_ingested) +
            " steps, " + std::to_string(report.ticks_ingested) + " ticks");
      return true;
    }
    service::EventRecord record = [&] {
      const obs::Tracer::Span span =
          obs::maybe_span(options.taps.tracer, "net/decode", "net");
      return service::decode_record(frame.type, frame.payload, frame_offset);
    }();
    if (const auto* meta = std::get_if<service::SessionMeta>(&record)) {
      if (live != nullptr) {
        throw WireError("SessionMeta on an already-open session", frame_offset);
      }
      open_session(*meta);
    } else if (const auto* tick =
                   std::get_if<service::PriceTickRecord>(&record)) {
      if (live == nullptr) {
        throw WireError("PriceTick before SessionMeta", frame_offset);
      }
      live->on_price_tick(tick->hub, tick->interval, tick->price);
      ++report.ticks_ingested;
      pump();
    } else if (auto* step = std::get_if<service::WorkloadStepRecord>(&record)) {
      if (live == nullptr) {
        throw WireError("WorkloadStep before SessionMeta", frame_offset);
      }
      const std::int64_t expected =
          live->steps_done() + static_cast<std::int64_t>(pending.size());
      if (step->step != expected) {
        throw WireError("WorkloadStep out of order: got step " +
                            std::to_string(step->step) + ", expected " +
                            std::to_string(expected),
                        frame_offset);
      }
      // Reject a malformed step here, naming this frame: once buffered,
      // the resume cursor counts it as delivered.
      service::check_demand_step(step->demand, live->state_count(), step->step);
      pending.push_back(std::move(step->demand));
      ++report.steps_ingested;
      pump();
    } else {
      // RoutingDecision / StorageAction are server OUTPUTS; a feeder
      // sending one is confused.
      const std::string type = service::record_type_name(frame.type);
      throw WireError("unexpected " + type + " frame on the ingest channel",
                      frame_offset);
    }
    return false;
  }

  void publish_feed_end() {
    hub.publish(static_cast<std::uint8_t>(NetFrameType::kFeedEnd), {});
    // Give well-behaved subscribers a moment to receive the tail; a
    // wedged one cannot hold the server hostage.
    (void)hub.drain(kWriteTimeoutMs);
  }

  ServerReport serve() {
    while (std::optional<Socket> sock = ingest_listener.accept()) {
      ++report.ingest_connections;
      m_connections.add();
      try {
        if (handle_connection(*sock)) break;
      } catch (const NetError& e) {  // includes TimeoutError
        protocol_error(e.what());
      } catch (const service::EventLogError& e) {  // includes WireError
        protocol_error(e.what());
      }
    }
    report.subscribers_connected = hub.total_connected();
    report.subscriber_dropped_frames = hub.dropped_frames();
    return report;
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

std::uint16_t Server::ingest_port() const noexcept {
  return impl_->ingest_listener.port();
}

std::uint16_t Server::subscribe_port() const noexcept {
  return impl_->hub.port();
}

std::uint16_t Server::http_port() const noexcept {
  return impl_->http ? impl_->http->port() : 0;
}

ServerReport Server::serve() { return impl_->serve(); }

void Server::stop() {
  if (!impl_) return;
  impl_->stopping.store(true, std::memory_order_relaxed);
  impl_->ingest_listener.shutdown();
  impl_->hub.stop();
  if (impl_->http) impl_->http->stop();
}

}  // namespace cebis::net
