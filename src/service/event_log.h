#ifndef CEBIS_SERVICE_EVENT_LOG_H
#define CEBIS_SERVICE_EVENT_LOG_H

// Compact binary event log for the live service mode.
//
// A live session appends one frame per event: the session's static
// configuration (SessionMeta, always the first frame), every price tick
// the engine ingested, every workload step it advanced, and - as audit
// records - the routing decision and battery action of each step. The
// inputs (meta + ticks + steps) are sufficient to re-run the session
// on a fresh LiveEngine; doubles round-trip as raw IEEE-754 bits, so
// the replay sees byte-identical inputs and the determinism guards make
// its RunResult byte-identical too (the replay-equals-live contract,
// see service/replay.h).
//
// Format (little-endian, the only byte order the toolchain targets):
//
//   header   := magic "CEBISLOG" | u32 version (=1) | u32 reserved (=0)
//   frame    := u8 type | u32 payload_len | payload | u32 crc32
//   crc32    := IEEE 802.3 CRC of (type | payload_len | payload)
//
// The reader is strict: a torn final frame (EOF mid-frame), an oversized
// length prefix, a CRC mismatch, an unknown record type or a malformed
// payload all raise EventLogError naming the byte offset of the
// offending frame - never a silent partial replay.

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "base/ids.h"
#include "base/simtime.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "obs/taps.h"

namespace cebis::service {

inline constexpr char kEventLogMagic[8] = {'C', 'E', 'B', 'I',
                                           'S', 'L', 'O', 'G'};
inline constexpr std::uint32_t kEventLogVersion = 1;

/// Frame types (the u8 on the wire).
enum class RecordType : std::uint8_t {
  kSessionMeta = 1,
  kPriceTick = 2,
  kWorkloadStep = 3,
  kRoutingDecision = 4,
  kStorageAction = 5,
};

/// One live session's run description: the declarative subset of a
/// ScenarioSpec a stream can honour (no caller hooks, no price
/// overrides) plus the stream's cadences. LiveConfig adds the runtime
/// knobs to it, SessionMeta the fixture identity a log carries.
struct SessionSpec {
  std::string router = "price-aware";
  core::RouterConfig router_config{};
  /// Workload window (absolute hours); required, must be non-empty.
  Period period{0, 0};
  int steps_per_hour = 12;    ///< demand cadence (12 = 5-minute steps)
  int samples_per_hour = 12;  ///< native market interval of the tick stream
  energy::EnergyModelParams energy;
  bool enforce_p95 = true;
  int delay_hours = 1;
  /// See EngineConfig::delay_steps (> 0 routes on the settlement
  /// delay_steps native intervals back; 0 uses delay_hours).
  int delay_steps = 0;
  /// Attach a native-interval HourlyEnergyRecorder (per-interval rows in
  /// RunResult::hourly_energy); replay, a LiveEngine, does too.
  bool record_hourly_energy = false;
  /// Battery storage behind every cluster (see core::StorageSpec; the
  /// loggable subset only - empty per_cluster, default policy_config).
  std::optional<core::StorageSpec> storage;
};

/// The ScenarioSpec a session runs as (router, config, energy model,
/// 95/5, delays and storage at the tick stream's interval). Throws
/// std::invalid_argument when samples_per_hour does not divide the hour.
[[nodiscard]] core::ScenarioSpec scenario_of(const SessionSpec& spec);

/// The session's static configuration as logged: its SessionSpec plus
/// the fixture identity replay checks (seed and shape). Router
/// configuration is restricted to the registry's value-typed configs
/// (the RouterConfig variant); storage, when carried, must use an empty
/// per-cluster override and a default PolicyConfig - the writer rejects
/// specs it cannot round-trip exactly rather than logging a lossy
/// approximation.
struct SessionMeta : SessionSpec {
  std::uint64_t seed = 2009;  ///< Fixture::make seed
  std::uint32_t n_states = 0;
  std::uint32_t n_clusters = 0;
};

struct PriceTickRecord {
  HubId hub;
  std::int64_t interval = 0;  ///< absolute native interval (hour*sph + sub)
  double price = 0.0;         ///< $/MWh settlement
};

struct WorkloadStepRecord {
  std::int64_t step = 0;
  std::vector<double> demand;  ///< per-state demand (hits/s)
};

struct RoutingDecisionRecord {
  std::int64_t step = 0;
  std::vector<double> cluster_load;  ///< per-cluster routed load (hits/s)
};

struct StorageActionRecord {
  std::int64_t step = 0;
  /// Per-cluster battery state-of-charge delta over the step (MWh;
  /// > 0 charged, < 0 discharged to serve load).
  std::vector<double> soc_delta_mwh;
};

using EventRecord = std::variant<SessionMeta, PriceTickRecord,
                                 WorkloadStepRecord, RoutingDecisionRecord,
                                 StorageActionRecord>;

/// Raised on any structural log defect; `byte_offset` names where the
/// offending frame (or the truncation) starts in the file.
class EventLogError : public std::runtime_error {
 public:
  EventLogError(std::string message, std::int64_t byte_offset)
      : std::runtime_error(std::move(message) + " (byte offset " +
                           std::to_string(byte_offset) + ")"),
        byte_offset_(byte_offset) {}

  [[nodiscard]] std::int64_t byte_offset() const noexcept {
    return byte_offset_;
  }

 private:
  std::int64_t byte_offset_;
};

class EventLogWriter {
 public:
  /// Opens `path` (truncating) and writes the header. Throws
  /// std::runtime_error when the file cannot be opened. `taps`
  /// (obs::Taps, borrowed, may be null) receives frame/byte counters
  /// and a span per frame written; the wire format is independent of it.
  explicit EventLogWriter(const std::string& path, obs::Taps taps = {});

  void write(const SessionMeta& meta);
  void write(const PriceTickRecord& tick);
  void write(const WorkloadStepRecord& step);
  void write(const RoutingDecisionRecord& decision);
  void write(const StorageActionRecord& action);

  /// Flushes and closes; later writes throw std::logic_error.
  void close();

  [[nodiscard]] std::int64_t bytes_written() const noexcept { return bytes_; }
  [[nodiscard]] std::int64_t frames() const noexcept { return frames_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// Frames `record` into buf_ in place and appends it to the file.
  template <typename Record>
  void frame(RecordType type, const Record& record);

  std::string path_;
  std::ofstream out_;
  std::vector<std::uint8_t> buf_;  ///< one frame, reused
  std::int64_t bytes_ = 0;
  std::int64_t frames_ = 0;
  bool closed_ = false;
  obs::Counter m_frames_;
  obs::Counter m_bytes_;
  obs::Tracer* tracer_ = nullptr;
};

namespace codec {
template <typename Error>
class FrameReader;
}  // namespace codec

/// The one frame reader (codec::FrameReader) over a log file, plus
/// decode_record.
class EventLogReader {
 public:
  /// Opens `path` and validates the header (magic + version). Throws
  /// EventLogError on a missing/truncated/foreign header. `taps`
  /// (obs::Taps, borrowed, may be null) receives frame/byte counters
  /// plus a CRC-failure counter (bumped before the EventLogError is
  /// raised) and a span per frame read; parsing is independent of it.
  explicit EventLogReader(const std::string& path, obs::Taps taps = {});
  ~EventLogReader();

  /// The next record, or nullopt at clean end-of-log. Throws
  /// EventLogError on a torn frame (including a length prefix reaching
  /// past the end of the file), an oversized length prefix, a CRC
  /// mismatch, an unknown type or a malformed payload.
  [[nodiscard]] std::optional<EventRecord> next();

  /// Byte offset the next frame starts at.
  [[nodiscard]] std::int64_t offset() const noexcept;

 private:
  std::ifstream in_;
  std::unique_ptr<codec::FrameReader<EventLogError>> frames_;
  obs::Counter m_frames_;
  obs::Counter m_bytes_;
  obs::Tracer* tracer_ = nullptr;
};

/// A fully parsed session log, records bucketed by type in arrival
/// order. Throws EventLogError when the first frame is not the
/// SessionMeta or the log carries more than one.
struct RecordedSession {
  SessionMeta meta;
  std::vector<PriceTickRecord> ticks;
  std::vector<WorkloadStepRecord> steps;
  std::vector<RoutingDecisionRecord> decisions;
  std::vector<StorageActionRecord> storage_actions;
};

[[nodiscard]] RecordedSession read_session(const std::string& path);

// --- Record codec ---------------------------------------------------------
//
// The (type, payload) encoding of each record and the frame around it,
// shared with the network transport (src/net/): a record framed off a
// socket is byte-identical to the one the file log appends, so a server
// can append ingested frames verbatim and replay-equals-live holds for
// socket sessions.
//
// service/codec.h owns the frame format. One framing routine
// (codec::frame) writes every frame: the type, a length placeholder,
// the payload appended in place by the record's encoder, the patched
// length, the CRC. Framing a record into a reused buffer allocates
// nothing once it has grown to the largest frame. One frame reader
// (codec::FrameReader) reads every frame, from a log file or a socket,
// and hands out each payload as a view of its own buffer, which grows
// only as a larger frame's bytes arrive. encode_record(record) is the
// call for an owned payload vector (benches, tests).

/// Appends one frame, `u8 type | u32 payload_len | payload | u32 crc32`,
/// around an already-encoded `payload` to `out`.
void append_frame(std::vector<std::uint8_t>& out, std::uint8_t type,
                  std::span<const std::uint8_t> payload);

/// The wire type tag of a record.
[[nodiscard]] RecordType record_type(const EventRecord& record);

/// Human-readable name of a wire type tag ("SessionMeta", ... or
/// "unknown") for diagnostics.
[[nodiscard]] const char* record_type_name(std::uint8_t type);

/// Appends a record's payload (the bytes between the length prefix and
/// the CRC) to `out`. The SessionMeta form throws std::invalid_argument
/// for a meta the codec cannot round-trip exactly (non-registry router
/// config, non-loggable storage spec).
void encode_record(std::vector<std::uint8_t>& out, const SessionMeta& meta);
void encode_record(std::vector<std::uint8_t>& out, const PriceTickRecord& tick);
void encode_record(std::vector<std::uint8_t>& out,
                   const WorkloadStepRecord& step);
void encode_record(std::vector<std::uint8_t>& out,
                   const RoutingDecisionRecord& decision);
void encode_record(std::vector<std::uint8_t>& out,
                   const StorageActionRecord& action);

/// A record's payload as an owned vector (throws where the in-place
/// form does).
[[nodiscard]] std::vector<std::uint8_t> encode_record(const EventRecord& record);

/// Decodes one payload. Throws EventLogError naming `offset` (where the
/// frame started in its stream) on an unknown type or malformed payload.
[[nodiscard]] EventRecord decode_record(std::uint8_t type,
                                        std::span<const std::uint8_t> payload,
                                        std::int64_t offset);

}  // namespace cebis::service

#endif  // CEBIS_SERVICE_EVENT_LOG_H
