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
// Reading is strict: the event log's one frame reader cuts the frames,
// so a torn frame, a CRC mismatch or an oversized payload raises
// WireError worded as EventLogError is, naming the byte offset into the
// stream where the offending frame began - the server logs it and
// closes the connection, never resynchronizes.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/ids.h"
#include "net/socket.h"
#include "service/codec.h"
#include "service/event_log.h"

namespace cebis::net {

inline constexpr char kNetMagic[8] = {'C', 'E', 'B', 'I', 'S', 'N', 'E', 'T'};
inline constexpr std::uint32_t kNetVersion = 1;

/// What a connection is for; the server dispatches on it at accept.
enum class Channel : std::uint8_t {
  kIngest = 1,     ///< feeder -> server: SessionMeta, ticks, steps, FeedEnd
  kSubscribe = 2,  ///< server -> client: decisions, telemetry, headroom
};

/// Net-only frame types (disjoint from service::RecordType's 1..5) and
/// their names, declared with the frame format in service/codec.h.
using service::codec::frame_type_name;
using service::codec::NetFrameType;

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

/// One frame off the wire, payload still encoded: a view of the
/// reader's buffer, valid until its next call.
using Frame = service::codec::Frame;

/// Strict-reader failure; byte_offset() names where the offending
/// frame began, counted from the first byte after the stream header.
class WireError : public service::EventLogError {
 public:
  using EventLogError::EventLogError;
};

// --- stream headers ---------------------------------------------------------

void write_stream_header(Socket& sock, Channel channel, int timeout_ms);

/// Validates magic + version and returns the channel. Throws WireError
/// on a foreign or torn header, TimeoutError past the deadline.
[[nodiscard]] Channel read_stream_header(Socket& sock, int timeout_ms);

// --- frame I/O --------------------------------------------------------------

void write_frame(Socket& sock, std::uint8_t type,
                 std::span<const std::uint8_t> payload, int timeout_ms);

/// The one frame reader (service::codec::FrameReader) over a socket.
///
/// One read_some fills up to codec::kReadBufferSize bytes, and frames
/// are cut and checked in place, so a stream of small frames costs one
/// poll + recv per buffer refill. Because bytes past the current frame
/// may already sit in its buffer, the reader owns the socket's read
/// side once constructed: read nothing else from `sock` afterwards
/// (read the stream header first).
class FrameReader : public service::codec::FrameReader<WireError> {
 public:
  explicit FrameReader(Socket& sock) : sock_(sock) {}

  /// The next frame, or nullopt on orderly peer close at a frame
  /// boundary (nothing buffered). Throws WireError (torn frame / CRC
  /// mismatch / oversized payload), TimeoutError when the frame is not
  /// whole `timeout_ms` after this call first had to read: the deadline
  /// bounds the frame, not each refill, so a peer trickling bytes
  /// cannot hold the reader. A negative `timeout_ms` waits without
  /// limit. A socket failure after the frame's first byte reads as a
  /// torn frame.
  [[nodiscard]] std::optional<Frame> next(int timeout_ms);

 private:
  Socket& sock_;
};

// --- net-only payload codecs ------------------------------------------------
//
// The server's per-step frames (telemetry, seal headroom) append their
// payload to a caller's buffer, as service::encode_record does; the
// ingest status, sent once per feed, returns an owned vector.
// decode_ingest_status takes the frame's payload and the offset its
// frame began at (for WireError provenance), mirroring
// service::decode_record.

void encode_telemetry(std::vector<std::uint8_t>& out, const TelemetryFrame& t);
void encode_seal_headroom(std::vector<std::uint8_t>& out,
                          const SealHeadroomFrame& s);

[[nodiscard]] std::vector<std::uint8_t> encode_ingest_status(
    const IngestStatusFrame& s);
[[nodiscard]] IngestStatusFrame decode_ingest_status(
    std::span<const std::uint8_t> payload, std::int64_t offset);

}  // namespace cebis::net

#endif  // CEBIS_NET_WIRE_H
