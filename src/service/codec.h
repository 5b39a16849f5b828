#ifndef CEBIS_SERVICE_CODEC_H
#define CEBIS_SERVICE_CODEC_H

// Byte-level packing primitives and the one framing routine, shared by
// the binary event log (service/event_log.cpp) and the network
// transport (src/net/): both speak the same little-endian fixed-width
// encodings, so a frame captured off the wire is byte-identical to the
// one the file log appends. The Parser is the strict counterpart: every bounds defect
// raises EventLogError naming the byte offset the offending frame
// starts at - torn and trailing bytes are defects, never silently
// tolerated.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "service/event_log.h"

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
