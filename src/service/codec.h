#ifndef CEBIS_SERVICE_CODEC_H
#define CEBIS_SERVICE_CODEC_H

// The frame format's one owner: byte-level packing primitives, the one
// framing routine and the one frame reader, shared by the binary event
// log (service/event_log.cpp) and the network transport (src/net/), so
// a frame captured off the wire is byte-identical to the one the file
// log appends, and a file and a socket are read by the same code. The
// reader and the Parser are strict: every defect raises an error naming
// the byte offset the offending frame starts at - torn and trailing
// bytes are defects, never silently tolerated.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/event_log.h"

namespace cebis::service {

/// IEEE 802.3 CRC-32 (reflected polynomial 0xEDB88320; the frame
/// checksum), computed slicing-by-8: eight bytes per step through eight
/// lookup tables, then a bytewise tail.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

}  // namespace cebis::service

namespace cebis::service::codec {

// Fixed-width little-endian packing. The toolchain only targets
// little-endian hosts, so raw memcpy IS the wire format; static_assert
// keeps a big-endian port from silently writing byte-swapped logs.
static_assert(std::endian::native == std::endian::little,
              "cebis wire serialization assumes a little-endian host");

template <typename T>
inline void put(std::vector<std::uint8_t>& out, T value) {
  const auto size = out.size();
  out.resize(size + sizeof(T));
  std::memcpy(out.data() + size, &value, sizeof(T));
}

inline void put_f64(std::vector<std::uint8_t>& out, double value) {
  put(out, std::bit_cast<std::uint64_t>(value));
}

inline void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// A u32 count, then the run's raw bits in one copy.
inline void put_doubles(std::vector<std::uint8_t>& out,
                        std::span<const double> values) {
  put(out, static_cast<std::uint32_t>(values.size()));
  const auto size = out.size();
  out.resize(size + values.size_bytes());
  if (!values.empty()) {
    std::memcpy(out.data() + size, values.data(), values.size_bytes());
  }
}

/// A frame's type byte and length prefix.
inline constexpr std::size_t kFrameHeaderSize = 1 + sizeof(std::uint32_t);

/// The one framing routine: appends `u8 type | u32 payload_len | payload
/// | u32 crc32` to `out`. It writes the type and a length placeholder,
/// lets `encode_payload(out)` append the payload in place, patches the
/// length and appends the CRC - no payload temporary, and no allocation
/// once `out` has grown to the largest frame. Every frame the event log,
/// the feeder and the subscriber hub write goes through it.
template <typename EncodePayload>
void frame(std::vector<std::uint8_t>& out, std::uint8_t type,
           EncodePayload&& encode_payload) {
  const auto start = out.size();
  put(out, type);
  put(out, std::uint32_t{0});
  encode_payload(out);
  const auto payload_len =
      static_cast<std::uint32_t>(out.size() - start - kFrameHeaderSize);
  std::memcpy(out.data() + start + 1, &payload_len, sizeof(payload_len));
  // The CRC covers type + length + payload, so a frame whose header
  // bytes rot is as detectable as one whose payload does.
  put(out, crc32(out.data() + start, out.size() - start));
}

/// Appends `record`'s frame to `out`, its payload encoded in place by
/// service::encode_record.
template <typename Record>
void frame_record(std::vector<std::uint8_t>& out, RecordType type,
                  const Record& record) {
  frame(out, static_cast<std::uint8_t>(type),
        [&record](std::vector<std::uint8_t>& buf) {
          encode_record(buf, record);
        });
}

/// Frame types only the network transport carries, never a log file.
/// They share the type byte with RecordType's 1..5, so the one reader
/// names them.
enum class NetFrameType : std::uint8_t {
  kTelemetry = 32,     ///< server -> subscribers, once per advanced step
  kSealHeadroom = 33,  ///< server -> subscribers, once per advanced step
  kFeedEnd = 34,       ///< feeder -> server: the feed is complete
  kIngestStatus = 35,  ///< server -> feeder: resume cursor (on connect + ack)
};

/// Human-readable frame type name: the record names for 1..5, the
/// net-only names for 32..35, "unknown" otherwise.
[[nodiscard]] inline const char* frame_type_name(std::uint8_t type) {
  switch (static_cast<NetFrameType>(type)) {
    case NetFrameType::kTelemetry:
      return "Telemetry";
    case NetFrameType::kSealHeadroom:
      return "SealHeadroom";
    case NetFrameType::kFeedEnd:
      return "FeedEnd";
    case NetFrameType::kIngestStatus:
      return "IngestStatus";
  }
  return record_type_name(type);
}

/// Largest frame payload a FrameReader accepts.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;
/// A FrameReader's buffer, in bytes, until a larger frame arrives.
inline constexpr std::size_t kReadBufferSize = 64u << 10;

/// One frame as a FrameReader hands it out, payload still encoded: a
/// view of the reader's buffer, valid until the reader's next call.
struct Frame {
  std::uint8_t type = 0;
  std::span<const std::uint8_t> payload;
};

/// The one strict frame reader: the event log reads its file through it
/// (after the 16-byte file header), the network transport its sockets
/// (after the stream header).
///
/// It refills a buffer of its own from a byte source and cuts each
/// frame in place. A frame's length prefix is checked against
/// kMaxFramePayload, and the buffer is never sized from a prefix alone:
/// a frame larger than the buffer grows it at most twofold per refill,
/// as its bytes arrive, so a lying prefix cannot allocate much past the
/// bytes present. Every error is an `Error(message, offset)` naming the
/// offset the frame started at, worded the same for every source. A CRC
/// mismatch bumps `crc_failures` before the throw.
template <typename Error>
class FrameReader {
 public:
  /// `offset`: where the first frame starts, as the errors count it.
  explicit FrameReader(std::int64_t offset = 0, obs::Counter crc_failures = {})
      : buf_(kReadBufferSize), offset_(offset), crc_failures_(crc_failures) {}

  /// The next frame, or nullopt when the source ends exactly on a frame
  /// boundary. `read(dst, max)` is the byte source: it copies at most
  /// `max` bytes to `dst` and returns how many, 0 at the end of the
  /// stream. Throws Error on a torn frame, an oversized length prefix or
  /// a CRC mismatch.
  template <typename Read>
  [[nodiscard]] std::optional<Frame> next(Read&& read) {
    const std::int64_t at = offset_;
    if (!fill(kFrameHeaderSize, read)) {
      if (buffered() == 0) return std::nullopt;
      throw Error(
          std::string("torn frame: stream ended inside the header of a ") +
              frame_type_name(buf_[begin_]) + " frame",
          at);
    }
    const std::uint8_t type = buf_[begin_];
    std::uint32_t payload_len = 0;
    std::memcpy(&payload_len, buf_.data() + begin_ + 1, sizeof(payload_len));
    if (payload_len > kMaxFramePayload) {
      throw Error(std::string("oversized frame: the length prefix of a ") +
                      frame_type_name(type) + " frame claims " +
                      std::to_string(payload_len) +
                      " payload bytes, more than the " +
                      std::to_string(kMaxFramePayload) + " byte limit",
                  at);
    }
    const std::size_t crc_at = kFrameHeaderSize + payload_len;
    const std::size_t size = crc_at + sizeof(std::uint32_t);
    if (!fill(size, read)) {
      throw Error(std::string("torn frame: stream ended inside a ") +
                      frame_type_name(type) +
                      " frame whose length prefix claims " +
                      std::to_string(payload_len) + " payload bytes; " +
                      std::to_string(buffered() - kFrameHeaderSize) +
                      " of its " + std::to_string(size - kFrameHeaderSize) +
                      " payload and checksum bytes arrived",
                  at);
    }
    const std::uint8_t* bytes = buf_.data() + begin_;
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes + crc_at, sizeof(stored_crc));
    if (crc32(bytes, crc_at) != stored_crc) {
      crc_failures_.add();
      throw Error(std::string("CRC mismatch in a ") + frame_type_name(type) +
                      " frame",
                  at);
    }
    begin_ += size;
    offset_ += static_cast<std::int64_t>(size);
    return Frame{type, {bytes + kFrameHeaderSize, payload_len}};
  }

  /// Byte offset the next frame starts at.
  [[nodiscard]] std::int64_t offset() const noexcept { return offset_; }

  /// Bytes of the next frame already buffered.
  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - begin_; }

 private:
  /// Reads until `want` bytes of the current frame are buffered; false
  /// when the source ends first.
  template <typename Read>
  bool fill(std::size_t want, Read& read) {
    if (buffered() >= want) return true;
    // Move the partial frame to the front, so one read can refill the
    // rest of the buffer.
    if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, buffered());
      end_ -= begin_;
      begin_ = 0;
    }
    while (end_ < want) {
      if (end_ == buf_.size()) {
        buf_.resize(std::min(want, 2 * buf_.size()));
      }
      const std::size_t n = read(buf_.data() + end_, buf_.size() - end_);
      if (n == 0) return false;
      end_ += n;
    }
    return true;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0;  ///< first byte of the next frame in buf_
  std::size_t end_ = 0;    ///< one past the last byte read into buf_
  std::int64_t offset_;
  obs::Counter crc_failures_;
};

/// Bounds-checked payload cursor; every defect names the frame offset.
class Parser {
 public:
  Parser(std::span<const std::uint8_t> buf, std::int64_t frame_offset)
      : buf_(buf), frame_offset_(frame_offset) {}

  template <typename T>
  T get() {
    need(sizeof(T));
    T value;
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  double f64() { return std::bit_cast<double>(get<std::uint64_t>()); }

  bool boolean() { return get<std::uint8_t>() != 0; }

  std::string str() {
    const auto n = get<std::uint32_t>();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<double> doubles() {
    const auto n = get<std::uint32_t>();
    check_count(n, sizeof(std::uint64_t));
    std::vector<double> values(n);
    for (auto& v : values) v = f64();
    return values;
  }

  /// Validates a length prefix BEFORE sizing a container from it: a
  /// corrupt count must surface as a malformed payload naming the
  /// frame offset, not as a multi-gigabyte allocation (the prefix is
  /// 32 bits, so a torn frame can claim ~4e9 elements while the
  /// payload it arrived in is bounded by the frame reader).
  void check_count(std::size_t n, std::size_t bytes_per_element) {
    if ((buf_.size() - pos_) / bytes_per_element < n) {
      throw EventLogError(
          "malformed payload: length prefix claims " + std::to_string(n) +
              " elements, more than the frame can hold",
          frame_offset_);
    }
  }

  /// Call after the last field: trailing garbage is a defect too.
  void done() const {
    if (pos_ != buf_.size()) {
      throw EventLogError("malformed payload: " +
                              std::to_string(buf_.size() - pos_) +
                              " trailing bytes",
                          frame_offset_);
    }
  }

 private:
  void need(std::size_t n) {
    if (buf_.size() - pos_ < n) {
      throw EventLogError("malformed payload: field extends past frame end",
                          frame_offset_);
    }
  }

  std::span<const std::uint8_t> buf_;
  std::int64_t frame_offset_;
  std::size_t pos_ = 0;
};

}  // namespace cebis::service::codec

#endif  // CEBIS_SERVICE_CODEC_H
