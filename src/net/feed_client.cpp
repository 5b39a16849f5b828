#include "net/feed_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/socket.h"
#include "net/wire.h"
#include "service/codec.h"

namespace cebis::net {

namespace {

/// Flush threshold for the send buffer: frames are tiny (tens of
/// bytes), syscall-per-frame would dominate; 32 KiB batches amortize
/// it without hurting liveness at feed rates.
constexpr std::size_t kFlushBytes = 32u << 10;

constexpr int kConnectTimeoutMs = 2000;
/// Per-frame write deadline, and the read deadline on the FeedEnd ack
/// (the server may still be advancing buffered steps).
constexpr int kIoTimeoutMs = 10000;
constexpr int kMaxBackoffMs = 2000;

IngestStatusFrame read_status(FrameReader& reader, int timeout_ms) {
  const std::int64_t frame_offset = reader.offset();
  std::optional<Frame> frame = reader.next(timeout_ms);
  if (!frame) {
    throw NetError("server closed before sending an IngestStatus");
  }
  if (frame->type != static_cast<std::uint8_t>(NetFrameType::kIngestStatus)) {
    throw WireError(std::string("expected IngestStatus, got ") +
                        frame_type_name(frame->type),
                    frame_offset);
  }
  return decode_ingest_status(frame->payload, frame_offset);
}

/// Calls on_tick / on_step on every tick and step, by reference, in the
/// order interleave_feed() lists them.
template <typename OnTick, typename OnStep>
void for_each_in_feed_order(const service::SessionMeta& meta,
                            std::span<const service::PriceTickRecord> ticks,
                            std::span<const service::WorkloadStepRecord> steps,
                            OnTick&& on_tick, OnStep&& on_step) {
  // End times compared on the common grid of both cadences:
  //   tick i ends at (i + 1) / samples_per_hour hours
  //   step j ends at period.begin + (j + 1) / steps_per_hour hours
  const std::int64_t sph_p = meta.samples_per_hour;
  const std::int64_t sph_w = meta.steps_per_hour;
  std::size_t ti = 0;
  std::size_t si = 0;
  while (ti < ticks.size() || si < steps.size()) {
    bool take_tick;
    if (ti == ticks.size()) {
      take_tick = false;
    } else if (si == steps.size()) {
      take_tick = true;
    } else {
      const std::int64_t tick_key = (ticks[ti].interval + 1) * sph_w;
      const std::int64_t step_key =
          (meta.period.begin * sph_w +
           static_cast<std::int64_t>(steps[si].step) + 1) *
          sph_p;
      take_tick = tick_key <= step_key;  // tie: the tick seals first
    }
    if (take_tick) {
      on_tick(ticks[ti++]);
    } else {
      on_step(steps[si++]);
    }
  }
}

}  // namespace

std::vector<service::EventRecord> interleave_feed(
    const service::SessionMeta& meta,
    std::span<const service::PriceTickRecord> ticks,
    std::span<const service::WorkloadStepRecord> steps) {
  std::vector<service::EventRecord> plan;
  plan.reserve(ticks.size() + steps.size());
  const auto add = [&plan](const auto& record) { plan.emplace_back(record); };
  for_each_in_feed_order(meta, ticks, steps, add, add);
  return plan;
}

FeedClient::FeedClient(FeedClientOptions options)
    : options_(std::move(options)) {}

FeedReport FeedClient::run(const service::SessionMeta& meta,
                           std::span<const service::PriceTickRecord> ticks,
                           std::span<const service::WorkloadStepRecord> steps) {
  FeedReport report;
  int attempts = 0;
  int backoff_ms = options_.initial_backoff_ms;
  const auto retry_or_give_up = [&](const std::exception& e) {
    if (attempts >= options_.max_attempts) {
      throw NetError("feed failed after " + std::to_string(attempts) +
                     " attempts: " + e.what());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, kMaxBackoffMs);
  };
  for (;;) {
    ++attempts;
    try {
      Socket sock = connect_to(options_.host, options_.port, kConnectTimeoutMs);
      ++report.connections;
      write_stream_header(sock, Channel::kIngest, kIoTimeoutMs);
      FrameReader reader(sock);
      const IngestStatusFrame status = read_status(reader, kIoTimeoutMs);
      if (status.complete) {
        // The previous connection's ack was lost after the session
        // finished; nothing left to send.
        report.final_steps_done = status.steps_done;
        return report;
      }
      buf_.clear();
      if (!status.has_session) {
        service::codec::frame_record(buf_, service::RecordType::kSessionMeta,
                                     meta);
      }
      std::unordered_map<std::int32_t, std::int64_t> cursor;
      for (const IngestStatusFrame::HubCursor& c : status.cursors) {
        cursor.emplace(c.hub, c.next_interval);
      }
      const std::int64_t steps_covered =
          status.steps_done + status.steps_buffered;

      const auto send = [&](service::RecordType type, const auto& record) {
        service::codec::frame_record(buf_, type, record);
        if (buf_.size() >= kFlushBytes) {
          sock.write_all(buf_.data(), buf_.size(), kIoTimeoutMs);
          buf_.clear();
        }
      };
      for_each_in_feed_order(
          meta, ticks, steps,
          [&](const service::PriceTickRecord& tick) {
            const auto it =
                cursor.find(static_cast<std::int32_t>(tick.hub.value()));
            if (it != cursor.end() && tick.interval < it->second) {
              ++report.records_skipped;
              return;
            }
            ++report.ticks_sent;
            send(service::RecordType::kPriceTick, tick);
          },
          [&](const service::WorkloadStepRecord& step) {
            if (step.step < steps_covered) {
              ++report.records_skipped;
              return;
            }
            ++report.steps_sent;
            send(service::RecordType::kWorkloadStep, step);
          });
      service::append_frame(
          buf_, static_cast<std::uint8_t>(NetFrameType::kFeedEnd), {});
      sock.write_all(buf_.data(), buf_.size(), kIoTimeoutMs);

      const IngestStatusFrame ack = read_status(reader, kIoTimeoutMs);
      if (!ack.complete) {
        throw NetError("server acked without completing the session (" +
                       std::to_string(ack.steps_done) + " steps advanced)");
      }
      report.final_steps_done = ack.steps_done;
      return report;
    } catch (const NetError& e) {
      retry_or_give_up(e);
    } catch (const service::EventLogError& e) {
      retry_or_give_up(e);  // a torn or garbled status frame
    }
  }
}

}  // namespace cebis::net
