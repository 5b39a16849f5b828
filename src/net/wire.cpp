#include "net/wire.h"

#include <array>
#include <chrono>
#include <cstring>

#include "service/codec.h"

namespace cebis::net {

namespace {

using service::codec::Parser;
using service::codec::put;
using service::codec::put_f64;

constexpr std::size_t kStreamHeaderSize =
    sizeof(kNetMagic) + sizeof(std::uint32_t) + 1;

}  // namespace

// --- stream headers ---------------------------------------------------------

void write_stream_header(Socket& sock, Channel channel, int timeout_ms) {
  std::array<std::uint8_t, kStreamHeaderSize> header{};
  std::memcpy(header.data(), kNetMagic, sizeof(kNetMagic));
  const std::uint32_t version = kNetVersion;
  std::memcpy(header.data() + sizeof(kNetMagic), &version, sizeof(version));
  header[sizeof(kNetMagic) + sizeof(version)] =
      static_cast<std::uint8_t>(channel);
  sock.write_all(header.data(), header.size(), timeout_ms);
}

Channel read_stream_header(Socket& sock, int timeout_ms) {
  std::array<std::uint8_t, kStreamHeaderSize> header{};
  if (!sock.read_exact(header.data(), header.size(), timeout_ms)) {
    throw WireError("peer closed before the stream header", 0);
  }
  if (std::memcmp(header.data(), kNetMagic, sizeof(kNetMagic)) != 0) {
    throw WireError("bad magic: not a cebis net stream", 0);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header.data() + sizeof(kNetMagic), sizeof(version));
  if (version != kNetVersion) {
    throw WireError("unsupported net stream version " + std::to_string(version),
                    static_cast<std::int64_t>(sizeof(kNetMagic)));
  }
  const std::uint8_t channel = header[sizeof(kNetMagic) + sizeof(version)];
  if (channel != static_cast<std::uint8_t>(Channel::kIngest) &&
      channel != static_cast<std::uint8_t>(Channel::kSubscribe)) {
    throw WireError("unknown channel " + std::to_string(channel),
                    static_cast<std::int64_t>(sizeof(kNetMagic) +
                                              sizeof(version)));
  }
  return static_cast<Channel>(channel);
}

// --- frame I/O --------------------------------------------------------------

void write_frame(Socket& sock, std::uint8_t type,
                 std::span<const std::uint8_t> payload, int timeout_ms) {
  std::vector<std::uint8_t> buf;
  service::append_frame(buf, type, payload);
  sock.write_all(buf.data(), buf.size(), timeout_ms);
}

std::optional<Frame> FrameReader::next(int timeout_ms) {
  using Reader = service::codec::FrameReader<WireError>;
  using Clock = std::chrono::steady_clock;
  // The timeout bounds the whole frame: the call's first refill sets the
  // deadline, and each later one waits only for what is left of it. A
  // frame already buffered reads no clock; a negative timeout sets no
  // deadline, and every refill waits without limit.
  std::optional<Clock::time_point> deadline;
  return Reader::next([&](std::uint8_t* dst, std::size_t max) -> std::size_t {
    int wait_ms = timeout_ms;
    if (timeout_ms >= 0) {
      const Clock::time_point now = Clock::now();
      if (!deadline) deadline = now + std::chrono::milliseconds(timeout_ms);
      const auto left =
          std::chrono::ceil<std::chrono::milliseconds>(*deadline - now).count();
      wait_ms = left > 0 ? static_cast<int>(left) : 0;
    }
    try {
      return sock_.read_some(dst, max, wait_ms);
    } catch (const TimeoutError&) {
      // Name the frame's timeout, not the slice of it this refill had.
      throw TimeoutError("read timed out after " + std::to_string(timeout_ms) +
                         " ms");
    } catch (const NetError&) {
      // Inside a frame, a failed socket ends the stream there: the
      // reader reports the torn frame.
      if (buffered() == 0) throw;
      return 0;
    }
  });
}

// --- net-only payload codecs ------------------------------------------------

void encode_telemetry(std::vector<std::uint8_t>& out, const TelemetryFrame& t) {
  put(out, t.step);
  put_f64(out, t.cost_so_far);
  put_f64(out, t.energy_so_far);
  put_f64(out, t.bill_last);
  put_f64(out, t.bill_mean);
  put_f64(out, t.bill_ewma);
  put(out, static_cast<std::uint8_t>(t.have_savings ? 1 : 0));
  put_f64(out, t.savings_last);
  put_f64(out, t.savings_mean);
  put_f64(out, t.savings_ewma);
  put(out, t.plan_rebuilds);
}

void encode_seal_headroom(std::vector<std::uint8_t>& out,
                          const SealHeadroomFrame& s) {
  put(out, s.sealed_end);
  put(out, s.needed_end);
  put(out, s.steps_done);
}

std::vector<std::uint8_t> encode_ingest_status(const IngestStatusFrame& s) {
  std::vector<std::uint8_t> out;
  put(out, static_cast<std::uint8_t>(s.has_session ? 1 : 0));
  put(out, static_cast<std::uint8_t>(s.complete ? 1 : 0));
  put(out, s.steps_done);
  put(out, s.steps_buffered);
  put(out, static_cast<std::uint32_t>(s.cursors.size()));
  for (const IngestStatusFrame::HubCursor& c : s.cursors) {
    put(out, c.hub);
    put(out, c.next_interval);
  }
  return out;
}

IngestStatusFrame decode_ingest_status(std::span<const std::uint8_t> payload,
                                       std::int64_t offset) {
  Parser p(payload, offset);
  IngestStatusFrame s;
  s.has_session = p.boolean();
  s.complete = p.boolean();
  s.steps_done = p.get<std::int64_t>();
  s.steps_buffered = p.get<std::int64_t>();
  const auto n = p.get<std::uint32_t>();
  p.check_count(n, sizeof(std::int32_t) + sizeof(std::int64_t));
  s.cursors.resize(n);
  for (auto& c : s.cursors) {
    c.hub = p.get<std::int32_t>();
    c.next_interval = p.get<std::int64_t>();
  }
  p.done();
  return s;
}

}  // namespace cebis::net
