#include "net/wire.h"

#include <array>
#include <cstring>

#include "service/codec.h"

namespace cebis::net {

namespace {

using service::codec::kFrameHeaderSize;
using service::codec::Parser;
using service::codec::put;
using service::codec::put_f64;

constexpr std::size_t kStreamHeaderSize =
    sizeof(kNetMagic) + sizeof(std::uint32_t) + 1;

}  // namespace

const char* frame_type_name(std::uint8_t type) {
  switch (static_cast<NetFrameType>(type)) {
    case NetFrameType::kTelemetry: return "Telemetry";
    case NetFrameType::kSealHeadroom: return "SealHeadroom";
    case NetFrameType::kFeedEnd: return "FeedEnd";
    case NetFrameType::kIngestStatus: return "IngestStatus";
    default: return service::record_type_name(type);
  }
}

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

FrameReader::FrameReader(Socket& sock) : sock_(sock), buf_(kReadBufferSize) {}

/// Reads until `want` bytes of the current frame are buffered; false
/// when the peer closes first. A socket failure after the frame's first
/// byte counts as a close (the caller reports the torn frame); one at a
/// frame boundary, and any timeout, propagates.
bool FrameReader::fill(std::size_t want, int timeout_ms) {
  if (end_ - begin_ >= want) return true;
  // Move the partial frame to the front, so one read can refill the
  // rest of the buffer.
  if (begin_ > 0) {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (buf_.size() < want) buf_.resize(want);  // a frame above kReadBufferSize
  while (end_ < want) {
    std::size_t n = 0;
    try {
      n = sock_.read_some(buf_.data() + end_, buf_.size() - end_, timeout_ms);
    } catch (const TimeoutError&) {
      throw;
    } catch (const NetError&) {
      if (end_ == 0) throw;
    }
    if (n == 0) return false;
    end_ += n;
  }
  return true;
}

std::optional<Frame> FrameReader::next(int timeout_ms) {
  const std::int64_t frame_offset = offset_;
  if (!fill(kFrameHeaderSize, timeout_ms)) {
    if (end_ == begin_) {
      return std::nullopt;  // orderly close exactly on a frame boundary
    }
    throw WireError(
        std::string("torn frame: stream ended inside the header of a ") +
            frame_type_name(buf_[begin_]) + " frame",
        frame_offset);
  }
  const std::uint8_t type = buf_[begin_];
  std::uint32_t payload_len = 0;
  std::memcpy(&payload_len, buf_.data() + begin_ + 1, sizeof(payload_len));
  // Checked before fill() grows the buffer to the frame's size.
  if (payload_len > kMaxFramePayload) {
    throw WireError("oversized frame: " + std::to_string(payload_len) +
                        " byte payload exceeds the " +
                        std::to_string(kMaxFramePayload) + " byte limit",
                    frame_offset);
  }
  const std::size_t crc_at = kFrameHeaderSize + payload_len;
  const std::size_t frame_size = crc_at + sizeof(std::uint32_t);
  if (!fill(frame_size, timeout_ms)) {
    throw WireError(std::string("torn frame: stream ended inside a ") +
                        frame_type_name(type) + " frame",
                    frame_offset);
  }
  const std::uint8_t* bytes = buf_.data() + begin_;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes + crc_at, sizeof(stored_crc));
  if (service::crc32(bytes, crc_at) != stored_crc) {
    throw WireError(std::string("CRC mismatch in a ") +
                        frame_type_name(type) + " frame",
                    frame_offset);
  }
  Frame frame;
  frame.type = type;
  frame.payload.assign(bytes + kFrameHeaderSize, bytes + crc_at);
  begin_ += frame_size;
  offset_ = frame_offset + static_cast<std::int64_t>(frame_size);
  return frame;
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

std::vector<std::uint8_t> encode_telemetry(const TelemetryFrame& t) {
  std::vector<std::uint8_t> out;
  encode_telemetry(out, t);
  return out;
}

TelemetryFrame decode_telemetry(std::span<const std::uint8_t> payload,
                                std::int64_t offset) {
  Parser p(payload, offset);
  TelemetryFrame t;
  t.step = p.get<std::int64_t>();
  t.cost_so_far = p.f64();
  t.energy_so_far = p.f64();
  t.bill_last = p.f64();
  t.bill_mean = p.f64();
  t.bill_ewma = p.f64();
  t.have_savings = p.boolean();
  t.savings_last = p.f64();
  t.savings_mean = p.f64();
  t.savings_ewma = p.f64();
  t.plan_rebuilds = p.get<std::int64_t>();
  p.done();
  return t;
}

void encode_seal_headroom(std::vector<std::uint8_t>& out,
                          const SealHeadroomFrame& s) {
  put(out, s.sealed_end);
  put(out, s.needed_end);
  put(out, s.steps_done);
}

std::vector<std::uint8_t> encode_seal_headroom(const SealHeadroomFrame& s) {
  std::vector<std::uint8_t> out;
  encode_seal_headroom(out, s);
  return out;
}

SealHeadroomFrame decode_seal_headroom(std::span<const std::uint8_t> payload,
                                       std::int64_t offset) {
  Parser p(payload, offset);
  SealHeadroomFrame s;
  s.sealed_end = p.get<std::int64_t>();
  s.needed_end = p.get<std::int64_t>();
  s.steps_done = p.get<std::int64_t>();
  p.done();
  return s;
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
