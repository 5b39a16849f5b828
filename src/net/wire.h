#ifndef CEBIS_NET_WIRE_H
#define CEBIS_NET_WIRE_H

// The service's wire protocol.
//
// A connection opens with a stream header naming its channel, then
// carries frames in EXACTLY the event log's frame format
// (service/event_log.h):
//
//   stream header := magic "CEBISNET" | u32 version (=1) | u8 channel
//   frame         := u8 type | u32 payload_len | payload | u32 crc32
//
// Record types 1..5 reuse the EventLog record codec byte for byte, so
// the server can hand an ingested frame's payload straight to
// service::decode_record and the log it appends is indistinguishable
// from one written in-process - the replay-equals-live contract
// extends over the socket. Types >= 32 are net-only control/telemetry
// messages that never appear in a log file.
//
// Reading is strict, mirroring EventLogError: a torn frame, a CRC
// mismatch, an oversized or malformed payload raise WireError naming
// the byte offset into the stream where the offending frame began -
// the server logs it and closes the connection, never resynchronizes.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/ids.h"
#include "net/socket.h"
#include "service/event_log.h"

namespace cebis::net {

inline constexpr char kNetMagic[8] = {'C', 'E', 'B', 'I', 'S', 'N', 'E', 'T'};
inline constexpr std::uint32_t kNetVersion = 1;

/// What a connection is for; the server dispatches on it at accept.
enum class Channel : std::uint8_t {
  kIngest = 1,     ///< feeder -> server: SessionMeta, ticks, steps, FeedEnd
  kSubscribe = 2,  ///< server -> client: decisions, telemetry, headroom
};

/// Net-only frame types (disjoint from service::RecordType's 1..5).
enum class NetFrameType : std::uint8_t {
  kTelemetry = 32,     ///< server -> subscribers, once per advanced step
  kSealHeadroom = 33,  ///< server -> subscribers, once per advanced step
  kFeedEnd = 34,       ///< feeder -> server: the feed is complete
  kIngestStatus = 35,  ///< server -> feeder: resume cursor (on connect + ack)
};

/// Rolling dollar telemetry after one advanced step (the subscriber
/// view of service::LiveTelemetry).
struct TelemetryFrame {
  std::int64_t step = 0;  ///< steps completed (the step just advanced + 1)
  double cost_so_far = 0.0;
  double energy_so_far = 0.0;
  double bill_last = 0.0;
  double bill_mean = 0.0;
  double bill_ewma = 0.0;
  bool have_savings = false;  ///< shadow baseline engaged
  double savings_last = 0.0;
  double savings_mean = 0.0;
  double savings_ewma = 0.0;
  std::int64_t plan_rebuilds = 0;
};

/// How far the tick stream runs ahead of the simulation.
struct SealHeadroomFrame {
  std::int64_t sealed_end = 0;  ///< one past the last interval sealed
  std::int64_t needed_end = 0;  ///< one past the last interval the next step needs
  std::int64_t steps_done = 0;
};

/// The server's resume cursor, sent right after the ingest stream
/// header on every connection and as the ack to kFeedEnd. A feeder
/// resumes by skipping ticks below each hub's cursor and steps below
/// steps_done - reconnection needs no other handshake.
struct IngestStatusFrame {
  bool has_session = false;   ///< false: send SessionMeta first
  bool complete = false;      ///< session finished (the kFeedEnd ack)
  std::int64_t steps_done = 0;
  /// Steps received and buffered but not yet advanced (waiting on
  /// unsealed prices); a resuming feeder skips steps below
  /// steps_done + steps_buffered.
  std::int64_t steps_buffered = 0;
  struct HubCursor {
    std::int32_t hub = 0;
    std::int64_t next_interval = 0;  ///< first interval not yet settled
  };
  std::vector<HubCursor> cursors;
};

/// One frame off the wire, payload still encoded.
struct Frame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Strict-reader failure; byte_offset() names where the offending
/// frame began, counted from the first byte after the stream header.
class WireError : public service::EventLogError {
 public:
  using EventLogError::EventLogError;
};

/// Human-readable frame type name: the record names for 1..5, the
/// net-only names for 32..35, "unknown" otherwise.
[[nodiscard]] const char* frame_type_name(std::uint8_t type);

// --- stream headers ---------------------------------------------------------

void write_stream_header(Socket& sock, Channel channel, int timeout_ms);

/// Validates magic + version and returns the channel. Throws WireError
/// on a foreign or torn header, TimeoutError past the deadline.
[[nodiscard]] Channel read_stream_header(Socket& sock, int timeout_ms);

// --- frame I/O --------------------------------------------------------------

void write_frame(Socket& sock, std::uint8_t type,
                 std::span<const std::uint8_t> payload, int timeout_ms);

/// Largest frame payload a FrameReader accepts.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;
/// A FrameReader's receive buffer, in bytes.
inline constexpr std::size_t kReadBufferSize = 64u << 10;

/// Strict framed reader over a socket.
///
/// It buffers: one read_some fills up to kReadBufferSize bytes, and
/// frames are then cut, length-checked and CRC-checked in place, so a
/// stream of small frames costs one poll + recv per buffer refill
/// rather than several per frame. Because bytes past the current frame
/// may already sit in its buffer, the reader owns the socket's read
/// side once constructed: read nothing else from `sock` afterwards
/// (read the stream header first).
///
/// A frame's length prefix is checked against kMaxFramePayload before
/// the buffer grows to fit it (a torn length prefix must not look like
/// a 4 GB frame); the buffer grows only for a single frame larger than
/// kReadBufferSize, and never past kMaxFramePayload plus the frame's
/// 9 framing bytes.
class FrameReader {
 public:
  explicit FrameReader(Socket& sock);

  /// The next frame, or nullopt on orderly peer close at a frame
  /// boundary (nothing buffered). Throws WireError (torn frame / CRC
  /// mismatch / oversized payload), TimeoutError when `timeout_ms`
  /// passes before the frame is whole.
  [[nodiscard]] std::optional<Frame> next(int timeout_ms);

  /// Byte offset the next frame starts at (stream header excluded).
  [[nodiscard]] std::int64_t offset() const noexcept { return offset_; }

 private:
  bool fill(std::size_t want, int timeout_ms);

  Socket& sock_;
  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0;  ///< first byte of the next frame in buf_
  std::size_t end_ = 0;    ///< one past the last byte read into buf_
  std::int64_t offset_ = 0;
};

// --- net-only payload codecs ------------------------------------------------
//
// Each encoder appends its payload to a caller's buffer, as
// service::encode_record does; the one-argument form returns it as an
// owned vector. decode_* take the frame's payload and the offset its
// frame began at (for WireError provenance), mirroring
// service::decode_record.

void encode_telemetry(std::vector<std::uint8_t>& out, const TelemetryFrame& t);
[[nodiscard]] std::vector<std::uint8_t> encode_telemetry(const TelemetryFrame& t);
// cebis-lint: allow(unreferenced-api) owns the frame format
[[nodiscard]] TelemetryFrame decode_telemetry(
    std::span<const std::uint8_t> payload, std::int64_t offset);

void encode_seal_headroom(std::vector<std::uint8_t>& out,
                          const SealHeadroomFrame& s);
[[nodiscard]] std::vector<std::uint8_t> encode_seal_headroom(
    const SealHeadroomFrame& s);
// cebis-lint: allow(unreferenced-api) owns the frame format
[[nodiscard]] SealHeadroomFrame decode_seal_headroom(
    std::span<const std::uint8_t> payload, std::int64_t offset);

[[nodiscard]] std::vector<std::uint8_t> encode_ingest_status(
    const IngestStatusFrame& s);
[[nodiscard]] IngestStatusFrame decode_ingest_status(
    std::span<const std::uint8_t> payload, std::int64_t offset);

}  // namespace cebis::net

#endif  // CEBIS_NET_WIRE_H
