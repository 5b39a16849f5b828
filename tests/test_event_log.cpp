// The binary event log (service/event_log.h): header and frame
// round-trips for every record type, the SessionMeta encoding with and
// without storage, and the strict-reader contract - torn final frames,
// CRC corruption, foreign headers and ordering violations must all
// raise EventLogError naming the byte offset, never a silent partial
// replay. The codec's bytes are pinned outright: the CRC against a
// bitwise reference, and one frame of every log and net frame type
// against golden hex.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/wire.h"
#include "service/codec.h"
#include "service/event_log.h"
#include "test_support.h"

namespace cebis::service {
namespace {

constexpr std::int64_t kHeaderSize = 16;  // magic + version + reserved

SessionMeta small_meta() {
  SessionMeta meta;
  meta.seed = 42;
  meta.router = "price-aware";
  meta.router_config = core::PriceAwareConfig{.distance_threshold = Km{1500.0},
                                              .price_threshold = UsdPerMwh{2.5}};
  meta.period = Period{100, 148};
  meta.steps_per_hour = 12;
  meta.samples_per_hour = 12;
  meta.delay_hours = 1;
  meta.delay_steps = 3;
  meta.enforce_p95 = false;
  meta.n_states = 7;
  meta.n_clusters = 3;
  meta.record_hourly_energy = true;
  return meta;
}

/// Overwrites one byte of the file at `offset` with `value`.
void poke(const std::string& path, std::int64_t offset, char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  f.put(value);
}

/// Truncates the file to `size` bytes.
void truncate_to(const std::string& path, std::int64_t size) {
  const std::string all = test::slurp(path);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(all.data(), size);
}

// --- round-trips ------------------------------------------------------------

TEST(EventLog, RoundTripsEveryRecordType) {
  test::TempFile file("event_log_roundtrip.eventlog");
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    writer.write(PriceTickRecord{HubId(4), 1207, 55.125});
    writer.write(WorkloadStepRecord{0, {1.0, 2.5, 0.0}});
    writer.write(RoutingDecisionRecord{0, {3.5, 0.0}});
    writer.write(StorageActionRecord{0, {0.25, -0.125}});
    EXPECT_EQ(writer.frames(), 5);
    EXPECT_GT(writer.bytes_written(), kHeaderSize);
    writer.close();
  }

  EventLogReader reader(file.path());
  EXPECT_EQ(reader.offset(), kHeaderSize);

  const auto meta_rec = reader.next();
  ASSERT_TRUE(meta_rec.has_value());
  const auto* meta = std::get_if<SessionMeta>(&*meta_rec);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->seed, 42u);
  EXPECT_EQ(meta->router, "price-aware");
  const auto* pa = std::get_if<core::PriceAwareConfig>(&meta->router_config);
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(pa->distance_threshold.value(), 1500.0);
  EXPECT_EQ(pa->price_threshold.value(), 2.5);
  EXPECT_EQ(meta->period.begin, 100);
  EXPECT_EQ(meta->period.end, 148);
  EXPECT_EQ(meta->steps_per_hour, 12);
  EXPECT_EQ(meta->samples_per_hour, 12);
  EXPECT_EQ(meta->delay_hours, 1);
  EXPECT_EQ(meta->delay_steps, 3);
  EXPECT_FALSE(meta->enforce_p95);
  EXPECT_EQ(meta->n_states, 7u);
  EXPECT_EQ(meta->n_clusters, 3u);
  EXPECT_TRUE(meta->record_hourly_energy);
  EXPECT_FALSE(meta->storage.has_value());

  const auto tick_rec = reader.next();
  ASSERT_TRUE(tick_rec.has_value());
  const auto* tick = std::get_if<PriceTickRecord>(&*tick_rec);
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->hub.index(), 4u);
  EXPECT_EQ(tick->interval, 1207);
  EXPECT_EQ(tick->price, 55.125);

  const auto step_rec = reader.next();
  ASSERT_TRUE(step_rec.has_value());
  const auto* step = std::get_if<WorkloadStepRecord>(&*step_rec);
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->step, 0);
  EXPECT_EQ(step->demand, (std::vector<double>{1.0, 2.5, 0.0}));

  const auto decision_rec = reader.next();
  ASSERT_TRUE(decision_rec.has_value());
  const auto* decision = std::get_if<RoutingDecisionRecord>(&*decision_rec);
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->cluster_load, (std::vector<double>{3.5, 0.0}));

  const auto action_rec = reader.next();
  ASSERT_TRUE(action_rec.has_value());
  const auto* action = std::get_if<StorageActionRecord>(&*action_rec);
  ASSERT_NE(action, nullptr);
  EXPECT_EQ(action->soc_delta_mwh, (std::vector<double>{0.25, -0.125}));

  EXPECT_FALSE(reader.next().has_value());  // clean end-of-log
}

TEST(EventLog, DoublesRoundTripBitForBit) {
  // The whole replay-equals-live contract rests on doubles surviving
  // the log as raw bits - pin it on awkward values (denormal, -0.0,
  // values with no short decimal form).
  const std::vector<double> awkward = {
      1.0 / 3.0, -0.0, 5e-324, 123456.789012345678,
      std::numeric_limits<double>::infinity()};
  test::TempFile file("event_log_bits.eventlog");
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    writer.write(WorkloadStepRecord{0, awkward});
    writer.close();
  }
  RecordedSession session = read_session(file.path());
  ASSERT_EQ(session.steps.size(), 1u);
  ASSERT_EQ(session.steps[0].demand.size(), awkward.size());
  for (std::size_t i = 0; i < awkward.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(session.steps[0].demand[i]),
              std::bit_cast<std::uint64_t>(awkward[i]))
        << i;
  }
}

TEST(EventLog, SessionMetaRoundTripsStorage) {
  SessionMeta meta = small_meta();
  core::StorageSpec storage;
  storage.battery.capacity = MegawattHours{2.0};
  storage.battery.max_charge = Watts{500'000.0};
  storage.battery.max_discharge = Watts{750'000.0};
  storage.battery.round_trip_efficiency = 0.9;
  storage.battery.initial_soc_fraction = 0.5;
  storage.policy = "arbitrage";
  storage.policy_config = storage::PolicyConfig{};  // default: loggable
  storage.cap_charge_at_peak = false;
  storage.tariff.index_to_wholesale = false;
  storage.tariff.energy_adder = UsdPerMwh{42.5};
  storage.tariff.demand_usd_per_kw_month = Usd{11.0};
  storage.tariff.demand_percentile = 95.0;
  meta.storage = storage;

  test::TempFile file("event_log_storage_meta.eventlog");
  {
    EventLogWriter writer(file.path());
    writer.write(meta);
    writer.close();
  }
  const RecordedSession session = read_session(file.path());
  ASSERT_TRUE(session.meta.storage.has_value());
  const core::StorageSpec& got = *session.meta.storage;
  EXPECT_EQ(got.battery.capacity.value(), 2.0);
  EXPECT_EQ(got.battery.max_charge.value(), 500'000.0);
  EXPECT_EQ(got.battery.max_discharge.value(), 750'000.0);
  EXPECT_EQ(got.battery.round_trip_efficiency, 0.9);
  EXPECT_EQ(got.battery.initial_soc_fraction, 0.5);
  EXPECT_EQ(got.policy, "arbitrage");
  EXPECT_TRUE(got.per_cluster.empty());
  EXPECT_FALSE(got.cap_charge_at_peak);
  EXPECT_FALSE(got.tariff.index_to_wholesale);
  EXPECT_EQ(got.tariff.energy_adder.value(), 42.5);
  EXPECT_EQ(got.tariff.demand_usd_per_kw_month.value(), 11.0);
  EXPECT_EQ(got.tariff.demand_percentile, 95.0);
}

TEST(EventLog, WriterRejectsNonRoundTrippableStorage) {
  // Specs the wire format cannot carry exactly are refused up front.
  test::TempFile file("event_log_reject.eventlog");
  SessionMeta meta = small_meta();
  meta.storage = core::StorageSpec{};
  meta.storage->per_cluster.resize(3);  // per-cluster override: not loggable
  {
    EventLogWriter writer(file.path());
    EXPECT_THROW(writer.write(meta), std::invalid_argument);
  }
  meta.storage = core::StorageSpec{};
  meta.storage->policy_config = storage::ArbitrageConfig{};  // non-default
  {
    EventLogWriter writer(file.path());
    EXPECT_THROW(writer.write(meta), std::invalid_argument);
  }
}

TEST(EventLog, WriterClosesOnce) {
  test::TempFile file("event_log_close.eventlog");
  EventLogWriter writer(file.path());
  writer.write(small_meta());
  writer.close();
  EXPECT_THROW(writer.write(PriceTickRecord{}), std::logic_error);
}

// --- corruption -------------------------------------------------------------

TEST(EventLog, TornFinalFrameNamesTheByteOffset) {
  test::TempFile file("event_log_torn.eventlog");
  std::int64_t after_first_frame = 0;
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    after_first_frame = writer.bytes_written();
    writer.write(PriceTickRecord{HubId(0), 5, 10.0});
    writer.close();
  }
  // Cut the file mid-way through the second frame's payload.
  truncate_to(file.path(), after_first_frame + 7);

  EventLogReader reader(file.path());
  ASSERT_TRUE(reader.next().has_value());  // the intact meta frame
  try {
    (void)reader.next();
    FAIL() << "torn frame must throw";
  } catch (const EventLogError& e) {
    EXPECT_EQ(e.byte_offset(), after_first_frame);
    EXPECT_NE(std::string(e.what()).find("torn frame"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what())
                  .find("byte offset " + std::to_string(after_first_frame)),
              std::string::npos)
        << e.what();
  }
}

TEST(EventLog, RejectsFrameLengthPastEndOfFile) {
  // A frame's 32-bit length prefix is checked against the bytes the file
  // has left BEFORE the reader sizes a buffer from it. Unchecked, a
  // prefix of 0xFFFFFFFF would make the reader zero 4 GiB before it
  // found the file too short.
  test::TempFile file("event_log_length.eventlog");
  std::int64_t second_frame_at = 0;
  std::uint32_t payload_len = 0;
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    second_frame_at = writer.bytes_written();
    writer.write(PriceTickRecord{HubId(0), 5, 10.0});
    // The frame is type + length + payload + CRC.
    payload_len = static_cast<std::uint32_t>(writer.bytes_written() -
                                             second_frame_at - 1 - 4 - 4);
    writer.close();
  }
  // Four billion bytes too long, and one byte too long.
  for (const std::uint32_t claimed : {0xFFFFFFFFu, payload_len + 1}) {
    for (int i = 0; i < 4; ++i) {
      poke(file.path(), second_frame_at + 1 + i,
           static_cast<char>((claimed >> (8 * i)) & 0xFFu));
    }
    EventLogReader reader(file.path());
    ASSERT_TRUE(reader.next().has_value());  // the intact meta frame
    try {
      (void)reader.next();
      FAIL() << "a length prefix past the end of the file must throw";
    } catch (const EventLogError& e) {
      EXPECT_EQ(e.byte_offset(), second_frame_at);
      EXPECT_NE(std::string(e.what()).find("length prefix"), std::string::npos)
          << e.what();
    }
  }
}

TEST(EventLog, CrcMismatchNamesTheByteOffset) {
  test::TempFile file("event_log_crc.eventlog");
  std::int64_t second_frame_at = 0;
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    second_frame_at = writer.bytes_written();
    writer.write(PriceTickRecord{HubId(0), 5, 10.0});
    writer.close();
  }
  // Flip a payload byte inside the second frame (past its 5-byte frame
  // header), leaving the stored CRC stale.
  poke(file.path(), second_frame_at + 6, '\x7f');

  EventLogReader reader(file.path());
  ASSERT_TRUE(reader.next().has_value());
  try {
    (void)reader.next();
    FAIL() << "CRC mismatch must throw";
  } catch (const EventLogError& e) {
    EXPECT_EQ(e.byte_offset(), second_frame_at);
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(EventLog, RejectsForeignHeaders) {
  test::TempFile file("event_log_header.eventlog");
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    writer.close();
  }

  poke(file.path(), 0, 'X');  // break the magic
  EXPECT_THROW(EventLogReader r(file.path()), EventLogError);

  poke(file.path(), 0, 'C');             // restore
  poke(file.path(), 8, '\x09');          // version 9
  EXPECT_THROW(EventLogReader r(file.path()), EventLogError);

  truncate_to(file.path(), 10);  // EOF inside the header
  EXPECT_THROW(EventLogReader r(file.path()), EventLogError);

  EXPECT_THROW(EventLogReader r("/nonexistent/never.eventlog"), EventLogError);
}

TEST(EventLog, RejectsUnknownRecordTypes) {
  test::TempFile file("event_log_unknown_type.eventlog");
  std::int64_t second_frame_at = 0;
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    second_frame_at = writer.bytes_written();
    writer.write(PriceTickRecord{HubId(0), 5, 10.0});
    writer.close();
  }
  // An unknown type byte also breaks the CRC, so rewriting just the
  // type is reported as corruption either way; assert it throws with
  // the right offset.
  poke(file.path(), second_frame_at, '\x63');
  EventLogReader reader(file.path());
  ASSERT_TRUE(reader.next().has_value());
  try {
    (void)reader.next();
    FAIL() << "unknown record type must throw";
  } catch (const EventLogError& e) {
    EXPECT_EQ(e.byte_offset(), second_frame_at);
  }
}

TEST(EventLog, RejectsDoublesCountLargerThanTheFrame) {
  // A WorkloadStep payload whose demand-vector length prefix claims
  // 2^32-1 doubles with nothing behind it. Before Parser::check_count
  // the decoder value-initialized a ~34 GB vector from those four
  // corrupt bytes (bad_alloc or the OOM killer, depending on
  // overcommit) before any bounds check ran; the strict-reader
  // contract says every payload defect is an EventLogError naming the
  // frame offset.
  std::vector<std::uint8_t> payload;
  codec::put(payload, std::int64_t{3});  // step
  codec::put(payload, std::uint32_t{0xFFFFFFFFu});
  try {
    (void)decode_record(static_cast<std::uint8_t>(RecordType::kWorkloadStep),
                        payload, 77);
    FAIL() << "oversized doubles count must throw";
  } catch (const EventLogError& e) {
    EXPECT_EQ(e.byte_offset(), 77);
    EXPECT_NE(std::string(e.what()).find("length prefix"), std::string::npos)
        << e.what();
  }

  // One element more than the bytes behind the prefix is just as
  // malformed as four billion.
  std::vector<std::uint8_t> off_by_one;
  codec::put(off_by_one, std::int64_t{3});
  codec::put(off_by_one, std::uint32_t{2});
  codec::put_f64(off_by_one, 1.5);  // only one double follows
  EXPECT_THROW(
      (void)decode_record(static_cast<std::uint8_t>(RecordType::kWorkloadStep),
                          off_by_one, 0),
      EventLogError);
}

// --- read_session ordering --------------------------------------------------

TEST(EventLog, ReadSessionRequiresMetaFirst) {
  test::TempFile file("event_log_no_meta.eventlog");
  std::int64_t tick_at = 0;
  {
    EventLogWriter writer(file.path());
    tick_at = writer.bytes_written();  // just past the file header
    writer.write(PriceTickRecord{HubId(0), 5, 10.0});
    writer.close();
  }
  // The error names the offending frame's first byte, not the next one.
  try {
    (void)read_session(file.path());
    FAIL() << "a log without a leading SessionMeta must be rejected";
  } catch (const EventLogError& e) {
    EXPECT_EQ(e.byte_offset(), tick_at);
  }

  test::TempFile empty("event_log_empty.eventlog");
  {
    EventLogWriter writer(empty.path());
    writer.close();
  }
  EXPECT_THROW((void)read_session(empty.path()), EventLogError);
}

TEST(EventLog, ReadSessionRejectsDuplicateMeta) {
  test::TempFile file("event_log_two_meta.eventlog");
  std::int64_t second_meta_at = 0;
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    second_meta_at = writer.bytes_written();
    writer.write(small_meta());
    writer.close();
  }
  try {
    (void)read_session(file.path());
    FAIL() << "a second SessionMeta must be rejected";
  } catch (const EventLogError& e) {
    EXPECT_EQ(e.byte_offset(), second_meta_at);
  }
}

TEST(EventLog, ReadSessionBucketsByType) {
  test::TempFile file("event_log_buckets.eventlog");
  {
    EventLogWriter writer(file.path());
    writer.write(small_meta());
    writer.write(PriceTickRecord{HubId(1), 10, 1.0});
    writer.write(PriceTickRecord{HubId(1), 11, 2.0});
    writer.write(WorkloadStepRecord{0, {1.0}});
    writer.write(RoutingDecisionRecord{0, {1.0}});
    writer.write(StorageActionRecord{0, {0.0}});
    writer.close();
  }
  const RecordedSession session = read_session(file.path());
  EXPECT_EQ(session.ticks.size(), 2u);
  EXPECT_EQ(session.steps.size(), 1u);
  EXPECT_EQ(session.decisions.size(), 1u);
  EXPECT_EQ(session.storage_actions.size(), 1u);
  EXPECT_EQ(session.ticks[1].interval, 11);
}

// --- crc32 ------------------------------------------------------------------

/// The CRC-32 straight from its definition, one bit at a time: the
/// reflected IEEE 802.3 polynomial, initial value and final XOR all
/// ones. No table, so it shares nothing with the code under test.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(EventLog, Crc32MatchesKnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);

  // Every length across several 8-byte blocks and their tails, at every
  // alignment of the first byte, against the bitwise definition.
  stats::Rng rng = test::test_rng(20);
  std::vector<std::uint8_t> buf(300 + 8);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.index(256));
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t size = 0; size <= 300; ++size) {
      ASSERT_EQ(crc32(buf.data() + start, size),
                reference_crc32(buf.data() + start, size))
          << "start " << start << ", size " << size;
    }
  }
}

// --- golden frames ------------------------------------------------------------
//
// The log writer and its reader share one codec, so a change to it
// round-trips cleanly and replay-equals-live cannot see it. These bytes
// can: they were captured from the original byte-at-a-time codec, and
// every frame type must keep them.

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::string frame_hex(std::uint8_t type,
                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, type, payload);
  return hex(frame);
}

SessionMeta golden_meta() {
  SessionMeta meta = small_meta();
  core::StorageSpec storage;
  storage.battery.capacity = MegawattHours{1.0};
  storage.battery.max_charge = Watts{400'000.0};
  storage.battery.max_discharge = Watts{400'000.0};
  storage.battery.round_trip_efficiency = 0.9;
  storage.policy = "lyapunov";
  storage.tariff.demand_usd_per_kw_month = Usd{12.0};
  meta.storage = storage;
  return meta;
}

struct GoldenRecord {
  EventRecord record;
  const char* hex;
};

const std::vector<GoldenRecord>& golden_records() {
  // Each frame: type | payload length | payload | CRC.
  static const std::vector<GoldenRecord> records = {
      {golden_meta(),
       "01" "d2000000"
       "2a000000000000000b00000070726963652d6177617265010000000000709740"
       "0000000000000440000000000000494064000000000000009400000000000000"
       "0c0000000c00000001000000030000000007000000030000000000000000406f"
       "40cdcccccccccce43fcdccccccccccf43f666666666666f63f00000000000000"
       "00000101000000000000f03f00000000006a184100000000006a1841cdcccccc"
       "ccccec3f0000000000000000080000006c796170756e6f760101000000000000"
       "000000000000000028400000000000005940"
       "c29926bc"},
      {PriceTickRecord{HubId(4), 1207, 55.125},
       "02" "14000000"
       "04000000b7040000000000000000000000904b40"
       "46780b63"},
      {WorkloadStepRecord{7, {1.0, -2.5, 1e-300, 0.0}},
       "03" "2c000000"
       "070000000000000004000000000000000000f03f00000000000004c059f3f8c2"
       "1f6ea5010000000000000000"
       "e03382f7"},
      {RoutingDecisionRecord{3, {3.5, 0.0, 1234.5}},
       "04" "24000000"
       "0300000000000000030000000000000000000c40000000000000000000000000"
       "004a9340"
       "b67c33ec"},
      {StorageActionRecord{3, {0.25, -0.125}},
       "05" "1c000000"
       "030000000000000002000000000000000000d03f000000000000c0bf"
       "97212eee"},
  };
  return records;
}

TEST(EventLog, RecordFramesMatchGoldenBytes) {
  for (const GoldenRecord& g : golden_records()) {
    const auto type = static_cast<std::uint8_t>(record_type(g.record));
    EXPECT_EQ(frame_hex(type, encode_record(g.record)), g.hex)
        << record_type_name(type);
  }

  // The writer frames in place; its file holds the same bytes after the
  // 16-byte header.
  test::TempFile file("event_log_golden.eventlog");
  std::string want;
  {
    EventLogWriter writer(file.path());
    for (const GoldenRecord& g : golden_records()) {
      std::visit([&writer](const auto& r) { writer.write(r); }, g.record);
      want += g.hex;
    }
    writer.close();
  }
  const std::string all = test::slurp(file.path());
  ASSERT_GE(all.size(), static_cast<std::size_t>(kHeaderSize));
  EXPECT_EQ(hex(std::span(reinterpret_cast<const std::uint8_t*>(all.data()),
                          all.size())
                    .subspan(kHeaderSize)),
            want);
}

TEST(EventLog, NetFramesMatchGoldenBytes) {
  net::TelemetryFrame t;
  t.step = 288;
  t.cost_so_far = 1234.5;
  t.energy_so_far = 67.25;
  t.bill_last = 4.5;
  t.bill_mean = 4.25;
  t.bill_ewma = 4.125;
  t.have_savings = true;
  t.savings_last = 0.5;
  t.savings_mean = -0.25;
  t.savings_ewma = 0.0625;
  t.plan_rebuilds = 24;
  std::vector<std::uint8_t> payload;
  net::encode_telemetry(payload, t);
  EXPECT_EQ(frame_hex(static_cast<std::uint8_t>(net::NetFrameType::kTelemetry),
                      payload),
            "20" "51000000"
            "200100000000000000000000004a93400000000000d0504000000000000012"
            "400000000000001140000000000080104001000000000000e03f0000000000"
            "00d0bf000000000000b03f1800000000000000"
            "07a98446");

  const net::SealHeadroomFrame s{
      .sealed_end = 5000, .needed_end = 4990, .steps_done = 12};
  payload.clear();
  net::encode_seal_headroom(payload, s);
  EXPECT_EQ(
      frame_hex(static_cast<std::uint8_t>(net::NetFrameType::kSealHeadroom),
                payload),
      "21" "18000000"
      "88130000000000007e130000000000000c00000000000000"
      "1fea34bd");

  net::IngestStatusFrame status;
  status.has_session = true;
  status.complete = false;
  status.steps_done = 100;
  status.steps_buffered = 2;
  status.cursors = {{4, 1300}, {7, 1299}};
  EXPECT_EQ(
      frame_hex(static_cast<std::uint8_t>(net::NetFrameType::kIngestStatus),
                net::encode_ingest_status(status)),
      "23" "2e000000"
      "0100640000000000000002000000000000000200000004000000140500000000"
      "0000070000001305000000000000"
      "3a0e2a49");

  EXPECT_EQ(frame_hex(static_cast<std::uint8_t>(net::NetFrameType::kFeedEnd),
                      {}),
            "22" "00000000" "798b237d");
}

}  // namespace
}  // namespace cebis::service
