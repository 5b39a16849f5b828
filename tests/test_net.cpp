// The network transport's contracts, all over real loopback sockets:
//
//   - the wire codec round-trips and the strict FrameReader rejects
//     torn, corrupt and oversized frames with byte-offset provenance,
//     reading the same frames however the stream is chunked into
//     writes, and the same records and errors as the event log's reader
//     on every mutated stream;
//   - a full socket-fed session is indistinguishable from an
//     in-process one: the event log the server writes is BYTE-IDENTICAL
//     to the log an in-process LiveEngine writes over the same feed,
//     and replay-equals-live extends over the socket, traced or not;
//   - protocol defects (CRC corruption, out-of-order ticks, malformed
//     workload steps, records before SessionMeta) close the connection
//     but never the session - a reconnecting FeedClient resumes from
//     the status cursor and completes;
//   - subscribers cannot perturb the tick loop: a slow client hits the
//     drop-oldest policy without stalling publish(), killed clients
//     are reaped, and the decision stream with 8 subscribers (some
//     killed mid-stream, one mute) is byte-identical to the
//     0-subscriber run.
//
// Runs in every CI leg including TSan (short windows, and the suite is
// the thread-heavy one - acceptor, writer and serve threads all race
// here if they race anywhere).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/experiment.h"
#include "core/workload.h"
#include "net/feed_client.h"
#include "net/http_metrics.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/subscriber_hub.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/codec.h"
#include "service/event_log.h"
#include "service/live_engine.h"
#include "service/replay.h"
#include "test_support.h"

namespace cebis::net {
namespace {

constexpr int kIoMs = 5000;

/// A default telemetry frame's payload, encoded in place as the server
/// encodes it.
std::vector<std::uint8_t> telemetry_payload() {
  std::vector<std::uint8_t> payload;
  encode_telemetry(payload, TelemetryFrame{});
  return payload;
}

// --- wire codec (no threads, no fixture) ------------------------------------

TEST(NetWireTest, StatusAndHeadroomRoundTrip) {
  IngestStatusFrame s;
  s.has_session = true;
  s.complete = false;
  s.steps_done = 11;
  s.steps_buffered = 3;
  s.cursors = {{4, 312}, {9, 300}};
  const IngestStatusFrame back = decode_ingest_status(encode_ingest_status(s), 0);
  EXPECT_TRUE(back.has_session);
  EXPECT_FALSE(back.complete);
  EXPECT_EQ(back.steps_done, 11);
  EXPECT_EQ(back.steps_buffered, 3);
  ASSERT_EQ(back.cursors.size(), 2u);
  EXPECT_EQ(back.cursors[0].hub, 4);
  EXPECT_EQ(back.cursors[0].next_interval, 312);
  EXPECT_EQ(back.cursors[1].hub, 9);
}

TEST(NetWireTest, RejectsCursorCountLargerThanThePayload) {
  // A truncated/garbled IngestStatus whose cursor-count prefix claims
  // ~2^31 entries with an empty tail. Before the check_count guard,
  // decode resized the cursor vector FIRST - a multi-gigabyte
  // allocation driven by four corrupt bytes - and only then failed
  // field-by-field. The strict-reader contract wants a clean
  // malformed-payload error naming the frame offset instead.
  IngestStatusFrame s;
  s.has_session = true;
  s.complete = false;
  s.steps_done = 11;
  s.steps_buffered = 3;
  std::vector<std::uint8_t> payload = encode_ingest_status(s);
  // Overwrite the trailing u32 cursor count (0) with a huge claim.
  const std::uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(payload.data() + payload.size() - sizeof(huge), &huge,
              sizeof(huge));
  try {
    (void)decode_ingest_status(payload, 1234);
    FAIL() << "oversized cursor count must throw";
  } catch (const service::EventLogError& e) {
    EXPECT_EQ(e.byte_offset(), 1234);
    EXPECT_NE(std::string(e.what()).find("length prefix"), std::string::npos)
        << e.what();
  }
}

TEST(NetWireTest, FrameTypeNames) {
  EXPECT_STREQ(frame_type_name(
                   static_cast<std::uint8_t>(service::RecordType::kPriceTick)),
               "PriceTick");
  EXPECT_STREQ(
      frame_type_name(static_cast<std::uint8_t>(NetFrameType::kTelemetry)),
      "Telemetry");
  EXPECT_STREQ(
      frame_type_name(static_cast<std::uint8_t>(NetFrameType::kIngestStatus)),
      "IngestStatus");
  EXPECT_STREQ(frame_type_name(250), "unknown");
}

/// A connected loopback socket pair (client side / accepted side).
struct SocketPair {
  Listener listener{0};
  Socket client;
  Socket server;
  SocketPair() {
    client = connect_to("127.0.0.1", listener.port(), 2000);
    std::optional<Socket> accepted = listener.accept();
    if (!accepted) throw NetError("SocketPair: accept failed");
    server = std::move(*accepted);
  }
};

/// Calls listener.accept() on a second thread, runs `wake` on this one,
/// and returns what accept() returned. A regression must fail the test,
/// not hang it: an accept() still blocked after 5 s cannot be joined, so
/// the test fails and the process ends.
std::optional<Socket> accept_after(Listener& listener,
                                   const std::function<void()>& wake) {
  std::promise<std::optional<Socket>> accepted;
  std::future<std::optional<Socket>> result = accepted.get_future();
  std::thread acceptor([&] { accepted.set_value(listener.accept()); });
  wake();
  if (result.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    ADD_FAILURE() << "accept() still blocked 5 s after the wake";
    std::abort();
  }
  acceptor.join();
  return result.get();
}

TEST(NetWireTest, ShutdownWakesABlockedAccept) {
  Listener listener(0);
  // shutdown() from another thread wakes an accept() already blocked.
  const auto shut_down_later = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener.shutdown();
  };
  EXPECT_FALSE(accept_after(listener, shut_down_later).has_value());
  // A later accept() returns at once, a repeated shutdown() is harmless,
  // and the port refuses new connections.
  listener.shutdown();
  EXPECT_FALSE(accept_after(listener, [] {}).has_value());
  EXPECT_THROW((void)connect_to("127.0.0.1", listener.port(), 2000), NetError);
}

TEST(NetWireTest, HubStopDoesNotRaceTheDroppedFramesReader) {
  // Server::serve() reads dropped_frames() as it returns while
  // Server::stop(), on another thread, may still be inside hub.stop()
  // folding the reaped subscribers' drops into the hub total.
  SubscriberHub hub(SubscriberHubOptions{});
  Socket subscriber = connect_to("127.0.0.1", hub.port(), 2000);
  write_stream_header(subscriber, Channel::kSubscribe, kIoMs);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (hub.subscriber_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(hub.subscriber_count(), 1u);

  std::atomic<bool> stopped{false};
  std::thread reader([&] {
    while (!stopped.load()) EXPECT_EQ(hub.dropped_frames(), 0);
  });
  hub.stop();
  stopped.store(true);
  reader.join();
  EXPECT_EQ(hub.subscriber_count(), 0u);
}

TEST(NetWireTest, FrameReaderAcceptsCleanCloseAtBoundary) {
  SocketPair pair;
  write_frame(pair.client, static_cast<std::uint8_t>(NetFrameType::kFeedEnd),
              {}, kIoMs);
  pair.client.close();
  FrameReader reader(pair.server);
  std::optional<Frame> frame = reader.next(kIoMs);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<std::uint8_t>(NetFrameType::kFeedEnd));
  EXPECT_TRUE(frame->payload.empty());
  EXPECT_FALSE(reader.next(kIoMs).has_value());  // orderly end of stream
}

TEST(NetWireTest, FrameReaderRejectsTornFrame) {
  SocketPair pair;
  std::vector<std::uint8_t> bytes;
  service::append_frame(bytes,
                        static_cast<std::uint8_t>(NetFrameType::kTelemetry),
                        telemetry_payload());
  // First frame whole, second frame cut mid-payload: the reader must
  // name the offset the TORN frame began at, not the stream start.
  const std::size_t first_end = bytes.size();
  service::append_frame(bytes,
                        static_cast<std::uint8_t>(NetFrameType::kTelemetry),
                        telemetry_payload());
  bytes.resize(first_end + 7);
  pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
  pair.client.close();

  FrameReader reader(pair.server);
  EXPECT_TRUE(reader.next(kIoMs).has_value());
  try {
    (void)reader.next(kIoMs);
    FAIL() << "a torn frame must not read back";
  } catch (const WireError& e) {
    EXPECT_EQ(e.byte_offset(), static_cast<std::int64_t>(first_end));
  }
}

TEST(NetWireTest, FrameReaderRejectsCorruptCrc) {
  SocketPair pair;
  std::vector<std::uint8_t> bytes;
  service::append_frame(bytes,
                        static_cast<std::uint8_t>(NetFrameType::kTelemetry),
                        telemetry_payload());
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
  FrameReader reader(pair.server);
  try {
    (void)reader.next(kIoMs);
    FAIL() << "a CRC mismatch must not read back";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(NetWireTest, FrameReaderRejectsOversizedPayloadBeforeAllocating) {
  SocketPair pair;
  std::vector<std::uint8_t> bytes = {static_cast<std::uint8_t>(
      NetFrameType::kTelemetry)};
  const std::uint32_t huge = service::codec::kMaxFramePayload + 1;
  bytes.resize(1 + sizeof(huge));
  std::memcpy(bytes.data() + 1, &huge, sizeof(huge));
  pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
  FrameReader reader(pair.server);
  EXPECT_THROW((void)reader.next(kIoMs), WireError);
}

TEST(NetWireTest, FrameReaderTimesOutMidFrame) {
  SocketPair pair;
  const std::uint8_t type = static_cast<std::uint8_t>(NetFrameType::kFeedEnd);
  pair.client.write_all(&type, 1, kIoMs);  // ...and then silence
  FrameReader reader(pair.server);
  EXPECT_THROW((void)reader.next(100), TimeoutError);
}

/// A 29-byte frame: header, a 20-byte payload, CRC.
std::vector<std::uint8_t> small_frame() {
  std::vector<std::uint8_t> bytes;
  service::append_frame(bytes,
                        static_cast<std::uint8_t>(NetFrameType::kTelemetry),
                        std::vector<std::uint8_t>(20, 0x5A));
  return bytes;
}

TEST(NetWireTest, FrameReaderTimeoutBoundsTheFrameNotEachRefill) {
  // A byte every 30 ms: each refill gets one well inside 100 ms, but the
  // frame would not be whole for ~870 ms.
  SocketPair pair;
  const std::vector<std::uint8_t> bytes = small_frame();
  ASSERT_EQ(bytes.size(), 29u);
  std::atomic<bool> gave_up{false};
  std::thread trickler([&] {
    for (const std::uint8_t b : bytes) {
      if (gave_up.load()) return;
      pair.client.write_all(&b, 1, kIoMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });
  FrameReader reader(pair.server);
  const auto start = std::chrono::steady_clock::now();
  std::string error;
  try {
    (void)reader.next(100);
  } catch (const TimeoutError& e) {
    error = e.what();
  }
  const auto took = std::chrono::steady_clock::now() - start;
  gave_up.store(true);
  trickler.join();
  EXPECT_LT(took, std::chrono::milliseconds(300));
  // The error names the frame's timeout, not the slice its last refill
  // had left.
  EXPECT_EQ(error, "read timed out after 100 ms");
}

/// Sends small_frame() in two bursts `gap_ms` apart and reads it with
/// `timeout_ms`.
void expect_frame_read_across_gap(int gap_ms, int timeout_ms) {
  SocketPair pair;
  const std::vector<std::uint8_t> bytes = small_frame();
  std::thread sender([&] {
    pair.client.write_all(bytes.data(), 10, kIoMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
    pair.client.write_all(bytes.data() + 10, bytes.size() - 10, kIoMs);
  });
  FrameReader reader(pair.server);
  const std::optional<Frame> frame = reader.next(timeout_ms);
  sender.join();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<std::uint8_t>(NetFrameType::kTelemetry));
  EXPECT_EQ(std::vector<std::uint8_t>(frame->payload.begin(),
                                      frame->payload.end()),
            std::vector<std::uint8_t>(20, 0x5A));
}

TEST(NetWireTest, FrameReaderReadsAFrameArrivingInBurstsWithinItsTimeout) {
  expect_frame_read_across_gap(40, 1000);
}

TEST(NetWireTest, FrameReaderWithANegativeTimeoutWaitsWithoutLimit) {
  expect_frame_read_across_gap(60, -1);
}

/// A frame with its own copy of the payload (a Frame views the reader's
/// buffer).
struct OwnedFrame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
  bool operator==(const OwnedFrame&) const = default;
};

std::vector<std::uint8_t> owned(std::span<const std::uint8_t> payload) {
  return {payload.begin(), payload.end()};
}

/// Frames as a feeder sends them: a SessionMeta, price ticks, a 51-state
/// WorkloadStep, one step larger than the reader's receive buffer, more
/// ticks and an empty FeedEnd.
std::vector<OwnedFrame> mixed_frames() {
  std::vector<OwnedFrame> frames;
  const auto add = [&](const service::EventRecord& record) {
    const auto type = static_cast<std::uint8_t>(service::record_type(record));
    frames.push_back({type, service::encode_record(record)});
  };
  service::SessionMeta meta;
  meta.period = {24, 48};
  meta.n_states = 51;
  add(meta);
  stats::Rng rng = test::test_rng(7);
  const auto add_ticks = [&](std::int64_t from, std::int64_t to) {
    for (std::int64_t interval = from; interval < to; ++interval) {
      const HubId hub{static_cast<std::int32_t>(interval % 9)};
      add(service::PriceTickRecord{hub, interval, rng.uniform(10.0, 90.0)});
    }
  };
  add_ticks(0, 40);
  service::WorkloadStepRecord step{0, std::vector<double>(51)};
  for (double& d : step.demand) d = rng.uniform(0.0, 5000.0);
  add(step);
  const std::size_t large =
      service::codec::kReadBufferSize / sizeof(double) + 100;
  add(service::WorkloadStepRecord{1, std::vector<double>(large, 1.5)});
  add_ticks(40, 80);
  frames.push_back({static_cast<std::uint8_t>(NetFrameType::kFeedEnd), {}});
  return frames;
}

std::vector<std::uint8_t> stream_of(const std::vector<OwnedFrame>& frames) {
  std::vector<std::uint8_t> bytes;
  for (const OwnedFrame& f : frames) {
    service::append_frame(bytes, f.type, f.payload);
  }
  return bytes;
}

/// The type byte, length prefix and CRC around each frame's payload.
constexpr std::size_t kFramingBytes = 9;

/// Reads every frame of `want` back with the same type, payload and
/// offset(), then the peer's clean close.
void expect_frames(FrameReader& reader, const std::vector<OwnedFrame>& want) {
  std::int64_t offset = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::optional<Frame> got = reader.next(kIoMs);
    ASSERT_TRUE(got.has_value()) << "frame " << i << " of " << want.size();
    EXPECT_EQ(got->type, want[i].type) << "frame " << i;
    EXPECT_EQ(owned(got->payload), want[i].payload) << "frame " << i;
    offset += static_cast<std::int64_t>(kFramingBytes + want[i].payload.size());
    EXPECT_EQ(reader.offset(), offset) << "frame " << i;
  }
  EXPECT_FALSE(reader.next(kIoMs).has_value());
}

TEST(NetWireTest, FrameReaderReadsTheSameFramesHoweverTheStreamIsChunked) {
  const std::vector<OwnedFrame> frames = mixed_frames();
  const std::vector<std::uint8_t> bytes = stream_of(frames);
  ASSERT_GT(bytes.size(), service::codec::kReadBufferSize);

  // The write sizes: the whole stream at once, one byte at a time, and
  // seeded random chunks.
  std::vector<std::vector<std::size_t>> plans(3);
  plans[0] = {bytes.size()};
  plans[1].assign(bytes.size(), 1);
  stats::Rng rng = test::test_rng(8);
  for (std::size_t left = bytes.size(); left > 0;) {
    const auto chunk = static_cast<std::size_t>(rng.uniform(1.0, 9000.0));
    plans[2].push_back(std::min(left, chunk));
    left -= plans[2].back();
  }
  for (const std::vector<std::size_t>& plan : plans) {
    SCOPED_TRACE(std::to_string(plan.size()) + " writes");
    SocketPair pair;
    std::thread writer([&] {
      try {
        std::size_t at = 0;
        for (const std::size_t n : plan) {
          pair.client.write_all(bytes.data() + at, n, kIoMs);
          at += n;
        }
      } catch (const NetError& e) {
        ADD_FAILURE() << "writer: " << e.what();
      }
      pair.client.close();
    });
    FrameReader reader(pair.server);
    expect_frames(reader, frames);
    pair.server.close();  // a reader that stopped early unblocks the writer
    writer.join();
  }
}

TEST(NetWireTest, FrameReaderHandsOutBufferedFramesAfterPeerClose) {
  // The stream and the close both arrive before the first read: every
  // frame comes back before the close does.
  std::vector<OwnedFrame> frames = mixed_frames();
  std::erase_if(frames, [](const OwnedFrame& f) {
    return f.payload.size() > service::codec::kReadBufferSize;
  });
  const std::vector<std::uint8_t> bytes = stream_of(frames);
  SocketPair pair;
  pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
  pair.client.close();
  FrameReader reader(pair.server);
  expect_frames(reader, frames);
}

TEST(NetWireTest, FrameReaderNamesTheBadFrameBehindWholeOnes) {
  // Three whole frames, then a bad fourth in the same write: the three
  // read back, and the error names the offset where the fourth began.
  const std::vector<OwnedFrame> frames = mixed_frames();
  std::vector<std::uint8_t> head;
  for (int i = 0; i < 3; ++i) {
    service::append_frame(head, frames[i].type, frames[i].payload);
  }
  std::vector<std::uint8_t> tick;
  service::append_frame(tick, frames[3].type, frames[3].payload);

  std::vector<std::uint8_t> bad_crc = tick;
  bad_crc.back() ^= 0x01;
  std::vector<std::uint8_t> oversized(tick.begin(), tick.begin() + 5);
  const std::uint32_t huge = service::codec::kMaxFramePayload + 1;
  std::memcpy(oversized.data() + 1, &huge, sizeof(huge));
  const std::vector<std::uint8_t> torn_header(tick.begin(), tick.begin() + 3);
  const std::vector<std::uint8_t> torn_body(tick.begin(), tick.end() - 2);
  const struct {
    const std::vector<std::uint8_t>& tail;
    const char* message;
  } cases[] = {
      {bad_crc, "CRC mismatch in a PriceTick frame"},
      {oversized, "oversized frame"},
      {torn_header, "stream ended inside the header of a PriceTick frame"},
      {torn_body, "stream ended inside a PriceTick frame"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    std::vector<std::uint8_t> bytes = head;
    bytes.insert(bytes.end(), c.tail.begin(), c.tail.end());
    SocketPair pair;
    pair.client.write_all(bytes.data(), bytes.size(), kIoMs);
    pair.client.close();
    FrameReader reader(pair.server);
    for (int i = 0; i < 3; ++i) {
      const std::optional<Frame> frame = reader.next(kIoMs);
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(owned(frame->payload), frames[i].payload);
    }
    try {
      (void)reader.next(kIoMs);
      FAIL() << "the fourth frame must not read back";
    } catch (const WireError& e) {
      EXPECT_EQ(e.byte_offset(), static_cast<std::int64_t>(head.size()));
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
}

/// How a stream read back: each record (type and payload, re-encoded),
/// then how it ended - an empty message for a clean end, else the
/// error's message without its " (byte offset N)" suffix, and N counted
/// from the first frame.
struct ReadBack {
  std::vector<OwnedFrame> records;
  std::string error;
  std::int64_t error_offset = -1;

  void add(const service::EventRecord& record) {
    records.push_back({static_cast<std::uint8_t>(service::record_type(record)),
                       service::encode_record(record)});
  }
  void end(const service::EventLogError& e, std::int64_t first_frame_at) {
    const std::string what = e.what();
    error = what.substr(0, what.rfind(" (byte offset "));
    error_offset = e.byte_offset() - first_frame_at;
  }
  [[nodiscard]] std::string str() const {
    return std::to_string(records.size()) + " records, then \"" + error +
           "\" at " + std::to_string(error_offset);
  }
  bool operator==(const ReadBack&) const = default;
};

/// `frames` as a log file: the 16-byte file header, then the frames,
/// read back through EventLogReader.
ReadBack read_as_log(const std::vector<std::uint8_t>& frames,
                     const std::string& path) {
  std::vector<std::uint8_t> bytes(std::begin(service::kEventLogMagic),
                                  std::end(service::kEventLogMagic));
  service::codec::put(bytes, service::kEventLogVersion);
  service::codec::put(bytes, std::uint32_t{0});
  const auto header = static_cast<std::int64_t>(bytes.size());
  bytes.insert(bytes.end(), frames.begin(), frames.end());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ReadBack back;
  try {
    service::EventLogReader reader(path);
    while (std::optional<service::EventRecord> record = reader.next()) {
      back.add(*record);
    }
  } catch (const service::EventLogError& e) {
    back.end(e, header);
  }
  return back;
}

/// `frames` off a loopback socket, as the server reads its ingest
/// stream: net::FrameReader, then decode_record.
ReadBack read_off_socket(const std::vector<std::uint8_t>& frames,
                         Listener& listener) {
  Socket client = connect_to("127.0.0.1", listener.port(), kIoMs);
  std::optional<Socket> server = listener.accept();
  if (!server) throw NetError("accept failed");
  client.write_all(frames.data(), frames.size(), kIoMs);
  client.close();
  FrameReader reader(*server);
  ReadBack back;
  try {
    for (;;) {
      const std::int64_t at = reader.offset();
      const std::optional<Frame> frame = reader.next(kIoMs);
      if (!frame) break;
      back.add(service::decode_record(frame->type, frame->payload, at));
    }
  } catch (const service::EventLogError& e) {  // includes WireError
    back.end(e, 0);
  }
  return back;
}

TEST(NetWireTest, FileAndSocketReadersAgreeOnMutatedStreams) {
  // A short session stream, cut and corrupted every way a strict reader
  // must survive. Read as a log file and off a socket, each mutated
  // stream must yield the same records and end the same way: cleanly,
  // or with the same message at the same offset from the first frame.
  stats::Rng rng = test::test_rng(21);
  std::vector<OwnedFrame> frames;
  const auto add = [&](const service::EventRecord& record) {
    frames.push_back({static_cast<std::uint8_t>(service::record_type(record)),
                      service::encode_record(record)});
  };
  service::SessionMeta meta;
  meta.period = {24, 26};
  meta.n_states = 4;
  meta.storage = core::StorageSpec{};
  add(meta);
  for (std::int64_t interval = 0; interval < 6; ++interval) {
    add(service::PriceTickRecord{HubId(static_cast<std::int32_t>(interval % 3)),
                                 interval, rng.uniform(10.0, 90.0)});
  }
  add(service::WorkloadStepRecord{0, {1.0, 2.5, 0.0, 4096.0}});
  add(service::RoutingDecisionRecord{0, {3.5, 0.0, 4.0}});
  add(service::StorageActionRecord{0, {0.25, -0.125, 0.0}});
  const std::vector<std::uint8_t> stream = stream_of(frames);
  std::vector<std::size_t> starts;  // where each frame begins
  for (std::size_t at = 0, i = 0; i < frames.size(); ++i) {
    starts.push_back(at);
    at += kFramingBytes + frames[i].payload.size();
  }

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> mutants;
  for (std::size_t n = 0; n <= stream.size(); ++n) {
    mutants.emplace_back("cut at " + std::to_string(n),
                         std::vector<std::uint8_t>(stream.begin(),
                                                   stream.begin() + n));
  }
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> bytes = stream;
    const std::size_t at = rng.index(bytes.size());
    const auto mask = static_cast<std::uint8_t>(1 + rng.index(255));
    bytes[at] ^= mask;
    mutants.emplace_back("byte " + std::to_string(at) + " ^ " +
                             std::to_string(mask),
                         std::move(bytes));
  }
  for (const std::size_t start : starts) {
    const auto past_the_data =
        static_cast<std::uint32_t>(stream.size() + 1 - start - kFramingBytes);
    for (const std::uint32_t claimed :
         {std::uint32_t{0}, past_the_data, service::codec::kMaxFramePayload,
          service::codec::kMaxFramePayload + 1, std::uint32_t{0xFFFFFFFFu}}) {
      std::vector<std::uint8_t> bytes = stream;
      std::memcpy(bytes.data() + start + 1, &claimed, sizeof(claimed));
      mutants.emplace_back("length " + std::to_string(claimed) +
                               " at frame " + std::to_string(start),
                           std::move(bytes));
    }
  }
  for (int i = 0; i < 100; ++i) {
    // Corrupt one frame's payload and frame it again: the CRC holds, so
    // only the payload decoder can object.
    std::vector<OwnedFrame> corrupt = frames;
    const std::size_t f = rng.index(corrupt.size());
    std::vector<std::uint8_t>& payload = corrupt[f].payload;
    const std::size_t at = rng.index(payload.size());
    payload[at] ^= static_cast<std::uint8_t>(1 + rng.index(255));
    mutants.emplace_back("payload byte " + std::to_string(at) + " of frame " +
                             std::to_string(f) + ", CRC recomputed",
                         stream_of(corrupt));
  }

  test::TempFile file("net_reader_parity.eventlog");
  Listener listener(0);
  // How many streams ended each way: every way must occur, so that no
  // rule of the reader goes untried.
  std::map<std::string, int> endings;
  const char* const kinds[] = {"torn frame", "oversized frame",
                               "CRC mismatch", "malformed"};
  int mismatches = 0;
  for (const auto& [label, bytes] : mutants) {
    const ReadBack log = read_as_log(bytes, file.path());
    const ReadBack wire = read_off_socket(bytes, listener);
    if (log != wire && ++mismatches <= 5) {
      ADD_FAILURE() << label << ": the log read " << log.str()
                    << "; the socket read " << wire.str();
    }
    if (log.error.empty()) ++endings["clean end"];
    for (const char* kind : kinds) {
      if (log.error.starts_with(kind)) ++endings[kind];
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << mutants.size() << " mutated streams";
  EXPECT_GT(endings["clean end"], 0);
  for (const char* kind : kinds) EXPECT_GT(endings[kind], 0) << kind;
}

TEST(NetWireTest, StreamHeaderRejectsForeignBytes) {
  SocketPair pair;
  const char garbage[] = "GET /metrics HTTP/1.1\r\n";
  pair.client.write_all(garbage, sizeof(garbage) - 1, kIoMs);
  EXPECT_THROW((void)read_stream_header(pair.server, kIoMs), WireError);

  SocketPair pair2;
  write_stream_header(pair2.client, Channel::kSubscribe, kIoMs);
  EXPECT_EQ(read_stream_header(pair2.server, kIoMs), Channel::kSubscribe);
}

TEST(NetWireTest, FeedClientGivesUpAfterMaxAttempts) {
  std::uint16_t dead_port = 0;
  {
    Listener probe(0);
    dead_port = probe.port();
  }  // closed: connections to it are refused
  FeedClientOptions options;
  options.port = dead_port;
  options.max_attempts = 2;
  options.initial_backoff_ms = 10;
  FeedClient client(options);
  EXPECT_THROW((void)client.run(service::SessionMeta{}, {}, {}), NetError);
}

TEST(NetWireTest, FeedClientNamesWhereAWrongStatusFrameBegan) {
  // A listener that answers the ingest header with a Telemetry frame
  // instead of an IngestStatus: the failure names the byte offset where
  // that frame began - the reply stream's first byte.
  Listener listener(0);
  std::thread answer([&] {
    try {
      std::optional<Socket> sock = listener.accept();
      if (!sock) return;
      (void)read_stream_header(*sock, kIoMs);
      write_frame(*sock, static_cast<std::uint8_t>(NetFrameType::kTelemetry),
                  telemetry_payload(), kIoMs);
    } catch (const std::exception&) {
      // Only the client's failure, checked below, matters.
    }
  });
  FeedClientOptions options;
  options.port = listener.port();
  options.max_attempts = 1;
  FeedClient client(options);
  std::string failure;
  try {
    (void)client.run(service::SessionMeta{}, {}, {});
  } catch (const std::exception& e) {
    failure = e.what();
  }
  listener.shutdown();  // wakes the accept if the client never connected
  answer.join();
  const std::string want =
      "expected IngestStatus, got Telemetry (byte offset 0)";
  EXPECT_NE(failure.find(want), std::string::npos) << failure;
}

// --- loopback sessions against a real Server --------------------------------

class NetLoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new core::Fixture(core::Fixture::make(test::kTestSeed));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static core::Fixture* fixture_;
};

core::Fixture* NetLoopbackTest::fixture_ = nullptr;

struct SessionFeed {
  service::SessionMeta meta;
  std::vector<service::PriceTickRecord> ticks;
  std::vector<service::WorkloadStepRecord> steps;
};

/// The session's first settlement interval: its priced window reaches
/// the routing delay back before the workload period.
std::int64_t first_interval(const service::SessionMeta& meta) {
  const int sph = meta.samples_per_hour;
  const Period priced = core::priced_window(meta.period, meta.delay_hours,
                                            meta.delay_steps, sph);
  return priced.begin * sph;
}

/// The session cebis_feed would synthesize: the fixture's own market as
/// the settlement feed, the trace as demand, over the first `hours`.
SessionFeed make_feed(const core::Fixture& fixture, std::int64_t hours) {
  SessionFeed feed;
  const Period trace = fixture.trace.period();
  const Period window{trace.begin, trace.begin + hours};
  const core::TraceWorkload demand(fixture.trace, fixture.allocation);

  feed.meta.seed = test::kTestSeed;
  feed.meta.router = "price-aware";
  feed.meta.period = window;
  feed.meta.steps_per_hour = demand.steps_per_hour();
  feed.meta.samples_per_hour = 12;

  const int sph = feed.meta.samples_per_hour;
  const Period priced = core::priced_window(window, feed.meta.delay_hours,
                                            feed.meta.delay_steps, sph);
  const market::PriceSet& prices = fixture.prices_covering(priced, sph);
  std::vector<HubId> hubs;
  for (const core::Cluster& c : fixture.clusters) {
    bool seen = false;
    for (const HubId h : hubs) seen = seen || h.index() == c.hub.index();
    if (!seen) hubs.push_back(c.hub);
  }
  for (std::int64_t interval = priced.begin * sph;
       interval < window.end * sph; ++interval) {
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : hubs) {
      feed.ticks.push_back({hub, interval, prices.rt_at(hub, hour, sub).value()});
    }
  }

  const std::int64_t steps = window.hours() * feed.meta.steps_per_hour;
  std::vector<double> row(demand.state_count(), 0.0);
  for (std::int64_t j = 0; j < steps; ++j) {
    demand.demand(j, row);
    feed.steps.push_back({j, row});
  }
  return feed;
}

/// The server's exact session, run in process: the meta's SessionSpec
/// slice as Server::Impl::open_session takes it, same buffer-then-pump
/// discipline, same feed order (interleave_feed). The event log this
/// writes must be byte-identical to the one the server writes over the
/// socket.
core::RunResult run_in_process(const core::Fixture& fixture,
                               const SessionFeed& feed,
                               const std::string& log_path) {
  service::LiveConfig cfg;
  static_cast<service::SessionSpec&>(cfg) = feed.meta;
  cfg.shadow_baseline = true;  // ServerOptions default

  service::EventLogWriter log(log_path);
  service::LiveEngine live(fixture, cfg, &log);
  std::deque<std::vector<double>> pending;
  const auto pump = [&] {
    while (!live.done() && !pending.empty() &&
           live.needed_end() <= live.sealed_end()) {
      live.advance(pending.front());
      pending.pop_front();
    }
  };
  for (const service::EventRecord& record :
       interleave_feed(feed.meta, feed.ticks, feed.steps)) {
    if (const auto* tick = std::get_if<service::PriceTickRecord>(&record)) {
      live.on_price_tick(tick->hub, tick->interval, tick->price);
    } else if (const auto* step =
                   std::get_if<service::WorkloadStepRecord>(&record)) {
      pending.push_back(step->demand);
    }
    pump();
  }
  EXPECT_TRUE(live.done());
  core::RunResult result = live.finish();
  log.close();
  return result;
}

/// Runs Server::serve() on a background thread; stop_and_join() (or the
/// destructor) shuts it down even when the test fails mid-session.
class ServerHarness {
 public:
  explicit ServerHarness(ServerOptions options) : server_(std::move(options)) {
    thread_ = std::thread([this] { report_ = server_.serve(); });
  }
  ~ServerHarness() { (void)stop_and_join(); }

  [[nodiscard]] Server& server() noexcept { return server_; }

  /// Waits for serve() to return on its own (a completed feed).
  ServerReport join() {
    if (thread_.joinable()) thread_.join();
    return report_;
  }

  ServerReport stop_and_join() {
    server_.stop();
    return join();
  }

 private:
  Server server_;
  std::thread thread_;
  ServerReport report_;
};

/// True when the server logged a protocol error naming `offset` - the
/// byte the offending frame began at.
bool protocol_error_at(const ServerReport& report, std::int64_t offset) {
  const std::string where = "(byte offset " + std::to_string(offset) + ")";
  for (const std::string& event : report.events) {
    if (event.rfind("protocol error", 0) == 0 &&
        event.find(where) != std::string::npos) {
      return true;
    }
  }
  return false;
}

ServerOptions loopback_options(const std::string& log_path) {
  ServerOptions options;
  options.log_path = log_path;
  options.read_timeout_ms = kIoMs;
  return options;
}

/// An ingest-channel connection with the server's opening status frame
/// already consumed - the raw-protocol counterpart of FeedClient.
struct RawFeeder {
  Socket sock;
  std::optional<FrameReader> reader;
  IngestStatusFrame status;

  explicit RawFeeder(std::uint16_t port) {
    sock = connect_to("127.0.0.1", port, 2000);
    write_stream_header(sock, Channel::kIngest, kIoMs);
    reader.emplace(sock);
    std::optional<Frame> frame = reader->next(kIoMs);
    if (!frame ||
        frame->type != static_cast<std::uint8_t>(NetFrameType::kIngestStatus)) {
      throw NetError("RawFeeder: no IngestStatus after the header");
    }
    status = decode_ingest_status(frame->payload, 0);
  }

  void send(const service::EventRecord& record) {
    write_frame(sock, static_cast<std::uint8_t>(service::record_type(record)),
                service::encode_record(record), kIoMs);
  }

  /// True when the server closed the connection (the strict-reader
  /// reaction to a protocol defect).
  bool server_closed() {
    try {
      return !reader->next(kIoMs).has_value();
    } catch (const NetError&) {
      return true;  // reset instead of FIN: still closed
    }
  }
};

TEST_F(NetLoopbackTest, SocketFedSessionMatchesInProcessByteForByte) {
  test::TempFile server_log("net_session_server.eventlog");
  test::TempFile local_log("net_session_local.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);

  ServerHarness harness(loopback_options(server_log.path()));
  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  FeedClient client(client_options);
  const FeedReport sent = client.run(feed.meta, feed.ticks, feed.steps);
  const ServerReport report = harness.join();

  EXPECT_EQ(sent.connections, 1);
  EXPECT_EQ(sent.records_skipped, 0);
  EXPECT_EQ(sent.final_steps_done,
            static_cast<std::int64_t>(feed.steps.size()));
  EXPECT_EQ(report.ticks_ingested,
            static_cast<std::int64_t>(feed.ticks.size()));
  EXPECT_EQ(report.steps_ingested,
            static_cast<std::int64_t>(feed.steps.size()));
  EXPECT_EQ(report.protocol_errors, 0);
  ASSERT_TRUE(report.result.has_value());

  // The transport added nothing: the log the server wrote over the
  // socket is byte-identical to an in-process session's, and both
  // RunResults and the replay agree bit-for-bit.
  const core::RunResult local =
      run_in_process(*fixture_, feed, local_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, local), "");
  EXPECT_EQ(test::slurp(server_log.path()), test::slurp(local_log.path()));
  EXPECT_FALSE(test::slurp(server_log.path()).empty());

  const core::RunResult replayed =
      service::replay_file(*fixture_, server_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, replayed), "");
}

/// How many spans named `name` a trace holds.
std::size_t span_count(const obs::Tracer& tracer, const std::string& name) {
  const std::string json = tracer.json();
  const std::string key = "{\"name\":\"" + name + "\"";
  std::size_t count = 0;
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    ++count;
  }
  return count;
}

TEST_F(NetLoopbackTest, TracedServerSpansEachFrameAndStep) {
  test::TempFile traced_log("net_traced.eventlog");
  test::TempFile plain_log("net_untraced.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);
  const auto serve_feed = [&](const std::string& log_path,
                              obs::Tracer* tracer) {
    ServerOptions options = loopback_options(log_path);
    options.fixture = fixture_;
    options.taps.tracer = tracer;
    ServerHarness harness(options);
    FeedClientOptions client_options;
    client_options.port = harness.server().ingest_port();
    FeedClient client(client_options);
    const FeedReport sent = client.run(feed.meta, feed.ticks, feed.steps);
    EXPECT_EQ(sent.connections, 1);
    return harness.join();
  };
  obs::Tracer tracer;
  const ServerReport traced = serve_feed(traced_log.path(), &tracer);
  const ServerReport plain = serve_feed(plain_log.path(), nullptr);
  ASSERT_TRUE(traced.result.has_value());
  ASSERT_TRUE(plain.result.has_value());

  // One read per frame fed: the SessionMeta, every tick and step, and
  // the FeedEnd; one decode per record; one publish per advanced step.
  const std::size_t records = 1 + feed.ticks.size() + feed.steps.size();
  EXPECT_EQ(span_count(tracer, "net/read_frame"), records + 1);
  EXPECT_EQ(span_count(tracer, "net/decode"), records);
  EXPECT_EQ(span_count(tracer, "net/publish"), feed.steps.size());
  EXPECT_EQ(span_count(tracer, "live/advance"), feed.steps.size());

  // Tracing only observes: the log is the untraced session's, byte for
  // byte.
  EXPECT_EQ(service::diff_run_results(*traced.result, *plain.result), "");
  EXPECT_EQ(test::slurp(traced_log.path()), test::slurp(plain_log.path()));
  EXPECT_FALSE(test::slurp(traced_log.path()).empty());
}

TEST_F(NetLoopbackTest, CorruptFrameClosesConnectionButSessionSurvives) {
  test::TempFile server_log("net_corrupt.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);
  ServerHarness harness(loopback_options(server_log.path()));

  const std::int64_t start = first_interval(feed.meta);
  std::size_t hubs = 0;
  {
    RawFeeder feeder(harness.server().ingest_port());
    EXPECT_FALSE(feeder.status.has_session);
    feeder.send(service::EventRecord{feed.meta});
    // The first interval's ticks land clean...
    for (const service::PriceTickRecord& tick : feed.ticks) {
      if (tick.interval != start) break;
      feeder.send(service::EventRecord{tick});
      ++hubs;
    }
    // ...then a CRC-corrupted tick: the strict reader must drop the
    // connection without ingesting it.
    std::vector<std::uint8_t> bytes;
    service::append_frame(
        bytes, static_cast<std::uint8_t>(service::RecordType::kPriceTick),
        service::encode_record(service::EventRecord{feed.ticks[hubs]}));
    bytes.back() ^= 0xff;
    feeder.sock.write_all(bytes.data(), bytes.size(), kIoMs);
    EXPECT_TRUE(feeder.server_closed());
  }
  ASSERT_GT(hubs, 0u);

  // The session survived with a cursor past the clean ticks: the
  // FeedClient resumes, skips exactly those, and completes the feed.
  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  FeedClient client(client_options);
  const FeedReport sent = client.run(feed.meta, feed.ticks, feed.steps);
  EXPECT_EQ(sent.records_skipped, static_cast<std::int64_t>(hubs));

  const ServerReport report = harness.join();
  ASSERT_TRUE(report.result.has_value());
  EXPECT_GE(report.protocol_errors, 1);
  EXPECT_EQ(report.ingest_connections, 2);
  bool offset_logged = false;
  for (const std::string& event : report.events) {
    offset_logged = offset_logged ||
                    event.find("byte offset") != std::string::npos;
  }
  EXPECT_TRUE(offset_logged);

  // Replay-equals-live holds across the defect + resume.
  const core::RunResult replayed =
      service::replay_file(*fixture_, server_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, replayed), "");
}

TEST_F(NetLoopbackTest, OutOfOrderTickClosesConnectionButSessionSurvives) {
  test::TempFile server_log("net_out_of_order.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);
  ServerHarness harness(loopback_options(server_log.path()));

  const std::int64_t start = first_interval(feed.meta);
  // The bad tick's frame starts right after the meta frame.
  std::vector<std::uint8_t> meta_frame;
  service::append_frame(
      meta_frame, static_cast<std::uint8_t>(service::RecordType::kSessionMeta),
      service::encode_record(service::EventRecord{feed.meta}));
  const auto tick_at = static_cast<std::int64_t>(meta_frame.size());
  {
    RawFeeder feeder(harness.server().ingest_port());
    feeder.send(service::EventRecord{feed.meta});
    // A gap: the assembler expects `start` first, gets `start + 1`.
    feeder.send(service::EventRecord{
        service::PriceTickRecord{feed.ticks[0].hub, start + 1, 31.0}});
    EXPECT_TRUE(feeder.server_closed());
  }
  {
    // A NaN settlement at the expected interval, as the first frame of
    // a resumed connection (the session is already open).
    RawFeeder feeder(harness.server().ingest_port());
    EXPECT_TRUE(feeder.status.has_session);
    feeder.send(service::EventRecord{service::PriceTickRecord{
        feed.ticks[0].hub, start, std::numeric_limits<double>::quiet_NaN()}});
    EXPECT_TRUE(feeder.server_closed());
  }

  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  FeedClient client(client_options);
  const FeedReport sent = client.run(feed.meta, feed.ticks, feed.steps);
  EXPECT_EQ(sent.records_skipped, 0);  // neither bad tick took effect

  const ServerReport report = harness.join();
  ASSERT_TRUE(report.result.has_value());
  EXPECT_EQ(report.protocol_errors, 2);
  EXPECT_TRUE(protocol_error_at(report, tick_at));
  EXPECT_TRUE(protocol_error_at(report, 0));
  const core::RunResult replayed =
      service::replay_file(*fixture_, server_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, replayed), "");
}

TEST_F(NetLoopbackTest, BadWorkloadStepIsRejectedAtItsOwnFrame) {
  test::TempFile server_log("net_bad_step.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);
  ServerHarness harness(loopback_options(server_log.path()));

  // The bad step's frame starts right after the meta frame.
  std::vector<std::uint8_t> meta_frame;
  service::append_frame(
      meta_frame, static_cast<std::uint8_t>(service::RecordType::kSessionMeta),
      service::encode_record(service::EventRecord{feed.meta}));
  const auto step_at = static_cast<std::int64_t>(meta_frame.size());
  {
    // Step 0 with a NaN entry arrives before any tick has sealed its
    // prices, so only a check on arrival can catch it.
    RawFeeder feeder(harness.server().ingest_port());
    feeder.send(service::EventRecord{feed.meta});
    service::WorkloadStepRecord bad = feed.steps[0];
    bad.demand[0] = std::numeric_limits<double>::quiet_NaN();
    feeder.send(service::EventRecord{bad});
    EXPECT_TRUE(feeder.server_closed());
  }

  // The cursor did not count the bad step, so the resumed feed sends
  // the good step 0 and the session completes.
  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  client_options.max_attempts = 2;  // a stuck session fails fast
  FeedClient client(client_options);
  FeedReport sent;
  EXPECT_NO_THROW(sent = client.run(feed.meta, feed.ticks, feed.steps));
  EXPECT_EQ(sent.records_skipped, 0);
  EXPECT_EQ(sent.final_steps_done,
            static_cast<std::int64_t>(feed.steps.size()));

  const ServerReport report = harness.stop_and_join();
  ASSERT_TRUE(report.result.has_value());
  EXPECT_EQ(report.protocol_errors, 1);
  EXPECT_TRUE(protocol_error_at(report, step_at));
  EXPECT_EQ(report.steps_ingested,
            static_cast<std::int64_t>(feed.steps.size()));
  const core::RunResult replayed =
      service::replay_file(*fixture_, server_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, replayed), "");
}

TEST_F(NetLoopbackTest, RecordsBeforeSessionMetaAreRejected) {
  test::TempFile server_log("net_no_meta.eventlog");
  ServerHarness harness(loopback_options(server_log.path()));
  {
    RawFeeder feeder(harness.server().ingest_port());
    feeder.send(service::EventRecord{
        service::PriceTickRecord{HubId{0}, 0, 10.0}});
    EXPECT_TRUE(feeder.server_closed());
  }
  const ServerReport report = harness.stop_and_join();
  EXPECT_FALSE(report.result.has_value());
  EXPECT_GE(report.protocol_errors, 1);
  // The tick is the stream's first frame.
  EXPECT_TRUE(protocol_error_at(report, 0));
}

TEST_F(NetLoopbackTest, SessionMetaSeedMustMatchEmbeddedFixture) {
  test::TempFile server_log("net_seed_mismatch.eventlog");
  ServerOptions options = loopback_options(server_log.path());
  options.fixture = fixture_;
  // Sends `meta` as a fresh connection's first frame and returns what
  // the server made of it.
  const auto serve_meta = [&](const service::SessionMeta& meta) {
    ServerHarness harness(options);
    {
      RawFeeder feeder(harness.server().ingest_port());
      feeder.send(service::EventRecord{meta});
      EXPECT_TRUE(feeder.server_closed());
    }
    return harness.stop_and_join();
  };
  const auto expect_rejected = [](const ServerReport& report) {
    EXPECT_FALSE(report.result.has_value());
    EXPECT_EQ(report.protocol_errors, 1);
    EXPECT_TRUE(protocol_error_at(report, 0));
    for (const std::string& event : report.events) {
      EXPECT_NE(event.rfind("session opened", 0), 0u) << event;
    }
  };

  service::SessionMeta wrong_seed;
  wrong_seed.seed = test::kTestSeed + 1;  // not the embedded fixture's
  expect_rejected(serve_meta(wrong_seed));

  // A valid meta for the fixture, but naming a shape it does not build.
  const service::SessionMeta valid = make_feed(*fixture_, 2).meta;
  service::SessionMeta wrong_states = valid;
  wrong_states.n_states =
      static_cast<std::uint32_t>(fixture_->trace.state_count() + 1);
  expect_rejected(serve_meta(wrong_states));
  service::SessionMeta wrong_clusters = valid;
  wrong_clusters.n_clusters =
      static_cast<std::uint32_t>(fixture_->clusters.size() + 1);
  expect_rejected(serve_meta(wrong_clusters));
}

TEST_F(NetLoopbackTest, EventLogWriteFailureEscapesServe) {
  // An unwritable log is the server's failure, not the feeder's: serve()
  // throws it instead of counting a protocol error and waiting for a
  // reconnect.
  ServerOptions options = loopback_options("/nonexistent/net_unwritable.log");
  options.fixture = fixture_;
  Server server(options);
  std::exception_ptr error;
  std::thread serving([&] {
    try {
      (void)server.serve();
    } catch (...) {
      error = std::current_exception();
    }
  });
  {
    RawFeeder feeder(server.ingest_port());
    service::SessionMeta meta;
    meta.seed = test::kTestSeed;
    feeder.send(service::EventRecord{meta});
    EXPECT_TRUE(feeder.server_closed());
  }
  server.stop();  // so a swallowed error fails the test instead of hanging it
  serving.join();
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
}

TEST_F(NetLoopbackTest, ServerLifecyclesDoNotWaitOutAPoll) {
  // stop() wakes all three accept loops (ingest, subscribers, /metrics),
  // so a server's lifetime has no floor: ten whole lifecycles, each
  // with HTTP on and a subscriber attached, take a few milliseconds. An
  // accept loop that polled a stop flag every 100 ms would cost each
  // cycle up to 100 ms.
  test::TempFile server_log("net_lifecycles.eventlog");
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    ServerHarness harness(loopback_options(server_log.path()));
    Socket subscriber =
        connect_to("127.0.0.1", harness.server().subscribe_port(), 2000);
    write_stream_header(subscriber, Channel::kSubscribe, kIoMs);
    EXPECT_FALSE(harness.stop_and_join().result.has_value());
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
      500);
}

TEST_F(NetLoopbackTest, SlowSubscriberHitsDropPolicyWithoutStallingPublish) {
  SubscriberHubOptions options;
  options.queue_capacity = 4;
  options.write_timeout_ms = 500;
  SubscriberHub hub(options);

  // Publishing into an empty room is free.
  hub.publish(static_cast<std::uint8_t>(NetFrameType::kFeedEnd), {});
  EXPECT_EQ(hub.dropped_frames(), 0);

  // A subscriber that handshakes and then never reads a byte.
  Socket mute = connect_to("127.0.0.1", hub.port(), 2000);
  write_stream_header(mute, Channel::kSubscribe, kIoMs);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (hub.subscriber_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(hub.subscriber_count(), 1u);

  // 128 quarter-MiB frames (32 MiB total) overflow the socket buffers
  // and the 4-deep queue many times over. publish() must shrug it all
  // off without ever blocking on the wedged client.
  const std::vector<std::uint8_t> fat(256u << 10, 0xab);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 128; ++i) {
    hub.publish(static_cast<std::uint8_t>(NetFrameType::kTelemetry), fat);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            20'000);  // generous for TSan; the real bound is ~milliseconds
  EXPECT_GT(hub.dropped_frames(), 0);
  hub.stop();
  EXPECT_EQ(hub.total_connected(), 1);
}

TEST_F(NetLoopbackTest, SubscribersCannotPerturbTheDecisionStream) {
  test::TempFile server_log("net_subscribers.eventlog");
  test::TempFile local_log("net_subscribers_local.eventlog");
  const SessionFeed feed = make_feed(*fixture_, 2);

  ServerOptions options = loopback_options(server_log.path());
  options.subscriber_queue_capacity = 8;  // make drops plausible
  options.fixture = fixture_;  // the embedded-fixture path
  obs::MetricsRegistry registry;
  options.taps.metrics = &registry;  // to see the subscribers register
  ServerHarness harness(options);
  const std::uint16_t sub_port = harness.server().subscribe_port();

  // Eight subscribers: five read everything, two disconnect after a
  // couple of frames (the mid-stream kill), one is mute until the end.
  std::atomic<int> feed_ends{0};
  std::atomic<int> frames_seen{0};
  std::atomic<bool> session_over{false};
  std::vector<std::thread> subscribers;
  for (int i = 0; i < 5; ++i) {
    subscribers.emplace_back([&] {
      try {
        Socket sock = connect_to("127.0.0.1", sub_port, 2000);
        write_stream_header(sock, Channel::kSubscribe, kIoMs);
        FrameReader reader(sock);
        while (std::optional<Frame> frame = reader.next(kIoMs)) {
          ++frames_seen;
          if (frame->type ==
              static_cast<std::uint8_t>(NetFrameType::kFeedEnd)) {
            ++feed_ends;
            break;
          }
        }
      } catch (const NetError&) {
        // A drop-policy close is fine; the asserts below are about the
        // session, not about any one subscriber's luck.
      } catch (const service::EventLogError&) {
      }
    });
  }
  for (int i = 0; i < 2; ++i) {
    subscribers.emplace_back([&] {
      try {
        Socket sock = connect_to("127.0.0.1", sub_port, 2000);
        write_stream_header(sock, Channel::kSubscribe, kIoMs);
        FrameReader reader(sock);
        (void)reader.next(kIoMs);
        (void)reader.next(kIoMs);
      } catch (const NetError&) {
      } catch (const service::EventLogError&) {
      }  // then the socket closes: the kill
    });
  }
  subscribers.emplace_back([&] {
    try {
      Socket sock = connect_to("127.0.0.1", sub_port, 2000);
      write_stream_header(sock, Channel::kSubscribe, kIoMs);
      while (!session_over.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    } catch (const NetError&) {
    }
  });

  // Feed once all eight are registered: the feed takes milliseconds,
  // so on a loaded host it could otherwise end before some subscribers
  // connect.
  const auto connected = [&] {
    return registry.snapshot().value_or(
        "cebis_net_subscribers_connected_total", 0.0);
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (connected() < 8.0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  FeedClientOptions client_options;
  client_options.port = harness.server().ingest_port();
  FeedClient client(client_options);
  (void)client.run(feed.meta, feed.ticks, feed.steps);
  const ServerReport report = harness.join();
  session_over.store(true);
  for (std::thread& t : subscribers) t.join();

  ASSERT_TRUE(report.result.has_value());
  EXPECT_EQ(report.subscribers_connected, 8);
  EXPECT_GT(frames_seen.load(), 0);
  EXPECT_GT(feed_ends.load(), 0);  // well-behaved readers got the tail

  // The headline assert: with 8 subscribers of every temperament the
  // session's log - decisions included - is byte-identical to the
  // in-process (0-subscriber) run's, and so is the RunResult.
  const core::RunResult local =
      run_in_process(*fixture_, feed, local_log.path());
  EXPECT_EQ(service::diff_run_results(*report.result, local), "");
  EXPECT_EQ(test::slurp(server_log.path()), test::slurp(local_log.path()));

  const service::RecordedSession session =
      service::read_session(server_log.path());
  EXPECT_EQ(session.decisions.size(), feed.steps.size());
}

TEST_F(NetLoopbackTest, HttpEndpointServesPrometheusText) {
  obs::MetricsRegistry registry;
  obs::Counter scrapes =
      registry.counter("cebis_test_scrapes_total", "test counter");
  scrapes.add();

  HttpMetricsOptions options;
  options.registry = &registry;
  HttpMetricsServer http(options);

  const auto request = [&](const std::string& head) {
    Socket sock = connect_to("127.0.0.1", http.port(), 2000);
    const std::string req = head + "\r\nHost: localhost\r\n\r\n";
    sock.write_all(req.data(), req.size(), kIoMs);
    std::string response;
    char buf[4096];
    for (;;) {
      std::size_t n = 0;
      try {
        n = sock.read_some(buf, sizeof(buf), kIoMs);
      } catch (const NetError&) {
        break;
      }
      if (n == 0) break;
      response.append(buf, n);
    }
    return response;
  };

  const std::string ok = request("GET /metrics HTTP/1.1");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("text/plain"), std::string::npos);
  EXPECT_NE(ok.find("cebis_test_scrapes_total"), std::string::npos);

  EXPECT_NE(request("GET /nope HTTP/1.1").find("404"), std::string::npos);
  EXPECT_NE(request("POST /metrics HTTP/1.1").find("405"), std::string::npos);
  http.stop();
}

}  // namespace
}  // namespace cebis::net
