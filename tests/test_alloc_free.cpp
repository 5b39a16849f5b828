// Heap allocations per step, counted rather than timed. This binary
// replaces the global operator new with one that counts calls, opens
// batch sessions through the same construction the scenario runner uses
// (plan_run, a fresh workload and engine per cell), takes the first step
// - which may size scratch space such as a router's plan - and pins
// every later step at zero allocations. The live half runs a logged
// LiveEngine session the way the server drives one and pins its price
// ticks and its steps after the first at zero, does the same for the
// steps of that session's replay, and pins the subscriber hub's publish
// at zero when nobody subscribes. The read half pins the one frame
// reader: zero allocations per price-tick frame off a socket and out of
// a log file, and no large block for a length prefix that lies. The
// generators' workers allocate nothing at all. A count does not drift
// with the host's speed, so it gates hard where a timing cannot.
//
// The replacement forwards to malloc/free, so the sanitizers still see
// every block; every new/delete form that could otherwise pair a
// counted allocation with the runtime's own operator delete is replaced
// together.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/experiment.h"
#include "core/router_registry.h"
#include "core/routing.h"
#include "core/simulation.h"
#include "core/workload.h"
#include "market/market_simulator.h"
#include "net/feed_client.h"
#include "net/socket.h"
#include "net/subscriber_hub.h"
#include "net/wire.h"
#include "service/codec.h"
#include "service/event_log.h"
#include "service/live_engine.h"
#include "service/replay.h"
#include "test_support.h"
#include "traffic/trace_generator.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};  ///< the largest block asked for
std::atomic<std::thread::id> g_owner{};  ///< the thread a test runs on
std::atomic<std::int64_t> g_off_owner{0};  ///< allocations off g_owner

// Out of line, so that GCC does not see malloc and free paired with
// new and delete at inlined call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (std::this_thread::get_id() != g_owner.load(std::memory_order_relaxed)) {
    g_off_owner.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace cebis::core {
namespace {

struct AllocCell {
  const char* router;
  WorkloadKind workload;
  bool enforce_p95;
};

std::string label(const AllocCell& cell) {
  std::string name = cell.router;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += cell.workload == WorkloadKind::kTrace24Day ? "_trace" : "_study";
  name += cell.enforce_p95 ? "_p95" : "_relaxed";
  return name;
}

void PrintTo(const AllocCell& cell, std::ostream* os) { *os << label(cell); }

std::string cell_name(const ::testing::TestParamInfo<AllocCell>& info) {
  return label(info.param);
}

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

class AllocFree : public ::testing::TestWithParam<AllocCell> {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(Fixture::make(test::kTestSeed));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static Fixture* fixture_;
};

Fixture* AllocFree::fixture_ = nullptr;

TEST_P(AllocFree, BatchStepsAfterTheFirstAllocateNothing) {
  const AllocCell& cell = GetParam();
  const Fixture& fx = *fixture_;
  ScenarioSpec spec;
  spec.router = cell.router;
  spec.workload = cell.workload;
  spec.enforce_p95 = cell.enforce_p95;
  if (cell.workload == WorkloadKind::kSynthetic39Month) {
    const HourIndex mid = study_period().begin + 24 * 900;  // mid-2008
    spec.synthetic_window = Period{mid, mid + 24 * 14};
  }

  const Period period = scenario_period(fx, spec);
  RunPlan plan = plan_run(fx, spec, period);
  const market::PriceSet& prices =
      fx.prices_covering(plan.priced, market_samples_per_hour(spec));
  std::unique_ptr<Workload> workload;
  if (cell.workload == WorkloadKind::kTrace24Day) {
    workload = std::make_unique<TraceWorkload>(fx.trace, fx.allocation);
  } else {
    workload = std::make_unique<SyntheticWorkload39>(fx.synthetic,
                                                     fx.allocation, period);
  }
  const SimulationEngine engine(std::move(plan.clusters), prices, fx.distances,
                                plan.engine);

  const std::int64_t at_open = allocations();
  SimulationEngine::Session session = engine.begin(*workload, *plan.router);
  session.step();
  const std::int64_t after_first = allocations();
  while (!session.done()) session.step();
  const std::int64_t after_last = allocations();

  // Opening a session allocates, so a zero below is the count's, not a
  // counter that never ran.
  EXPECT_GT(after_first - at_open, 0);
  EXPECT_EQ(after_last - after_first, 0)
      << "over " << session.steps_done() - 1 << " steps after the first";
}

constexpr WorkloadKind kStudy = WorkloadKind::kSynthetic39Month;
constexpr WorkloadKind kTrace = WorkloadKind::kTrace24Day;
constexpr AllocCell kCells[] = {
    {"price-aware", kStudy, false},     {"price-aware", kStudy, true},
    {"baseline", kTrace, false},        {"baseline", kTrace, true},
    {"closest", kTrace, false},         {"closest", kTrace, true},
    {"price-aware", kTrace, false},     {"price-aware", kTrace, true},
    {"joint-objective", kTrace, false}, {"joint-objective", kTrace, true},
};

INSTANTIATE_TEST_SUITE_P(Routers, AllocFree, ::testing::ValuesIn(kCells),
                         cell_name);

// --- the live half ------------------------------------------------------------

/// The service benchmark's session: price-aware on the 5-minute market,
/// a shadow baseline, a Lyapunov battery behind every cluster under a
/// demand charge.
service::LiveConfig live_config(Period period) {
  service::LiveConfig config;
  config.router = "price-aware";
  config.period = period;
  config.steps_per_hour = 12;
  config.samples_per_hour = 12;
  config.shadow_baseline = true;
  StorageSpec storage;
  storage.policy = "lyapunov";
  storage.battery.capacity = MegawattHours{1.0};
  storage.battery.max_charge = Watts{400'000.0};
  storage.battery.max_discharge = Watts{400'000.0};
  storage.battery.round_trip_efficiency = 0.9;
  storage.tariff.demand_usd_per_kw_month = Usd{12.0};
  config.storage = storage;
  return config;
}

/// Every tick the session needs (each tracked hub, routing-delay margin
/// included) and every step of the trace's demand, in the order a feeder
/// sends them.
std::vector<service::EventRecord> live_feed(const Fixture& fx,
                                            const service::LiveConfig& config,
                                            const service::SessionMeta& meta) {
  const int sph = config.samples_per_hour;
  const Period priced{config.period.begin - config.delay_hours,
                      config.period.end};
  const market::PriceSet& prices = fx.prices_covering(priced, sph);
  std::vector<HubId> hubs;
  for (const Cluster& c : fx.clusters) {
    bool seen = false;
    for (const HubId h : hubs) seen = seen || h.index() == c.hub.index();
    if (!seen) hubs.push_back(c.hub);
  }
  std::vector<service::PriceTickRecord> ticks;
  for (std::int64_t i = priced.begin * sph; i < config.period.end * sph; ++i) {
    const HourIndex hour = i / sph;
    for (const HubId hub : hubs) {
      ticks.push_back(
          {hub, i, prices.rt_at(hub, hour, static_cast<int>(i - hour * sph))
                       .value()});
    }
  }
  const TraceWorkload demand(fx.trace, fx.allocation);
  std::vector<service::WorkloadStepRecord> steps;
  std::vector<double> row(demand.state_count());
  for (std::int64_t k = 0; k < config.period.hours() * config.steps_per_hour;
       ++k) {
    demand.demand(k, row);
    steps.push_back({k, row});
  }
  return net::interleave_feed(meta, ticks, steps);
}

/// What feeding a session cost, past its first step (which sizes the
/// log's frame buffer and the routers' and observers' scratch).
struct FeedCounts {
  std::int64_t ticks = 0;
  std::int64_t tick_allocations = 0;
  std::int64_t steps = 0;
  std::int64_t step_allocations = 0;
  std::int64_t allocating_steps = 0;  ///< steps that made any allocation
};

/// Feeds `feed` to `live` the way the server does - each tick as it
/// arrives, each buffered step as soon as its prices seal - counting the
/// allocations each call makes.
FeedCounts drive_counted(service::LiveEngine& live,
                         const std::vector<service::EventRecord>& feed) {
  FeedCounts counts;
  std::deque<const std::vector<double>*> pending;
  for (const service::EventRecord& record : feed) {
    if (const auto* tick = std::get_if<service::PriceTickRecord>(&record)) {
      const std::int64_t before = allocations();
      live.on_price_tick(tick->hub, tick->interval, tick->price);
      if (live.steps_done() > 0) {
        counts.tick_allocations += allocations() - before;
        ++counts.ticks;
      }
    } else {
      pending.push_back(&std::get<service::WorkloadStepRecord>(record).demand);
    }
    while (!pending.empty() && !live.done() &&
           live.needed_end() <= live.sealed_end()) {
      const bool first = live.steps_done() == 0;
      const std::int64_t before = allocations();
      live.advance(*pending.front());
      pending.pop_front();
      if (first) continue;
      const std::int64_t made = allocations() - before;
      counts.step_allocations += made;
      ++counts.steps;
      if (made != 0) ++counts.allocating_steps;
    }
  }
  return counts;
}

TEST(AllocFreeLive, LoggedSessionTicksAndStepsAllocateNothing) {
  const Fixture fx = Fixture::make(test::kTestSeed);
  const Period trace = fx.trace.period();
  const service::LiveConfig config =
      live_config(Period{trace.begin, trace.begin + 48});
  const std::vector<service::EventRecord> feed =
      live_feed(fx, config, service::LiveEngine(fx, config).meta());

  test::TempFile file("alloc_free_live.eventlog");
  service::EventLogWriter log(file.path());
  service::LiveEngine live(fx, config, &log);
  const FeedCounts counts = drive_counted(live, feed);
  ASSERT_TRUE(live.done());
  EXPECT_EQ(counts.steps, 575);
  EXPECT_GT(counts.ticks, 5000);

  // A tick is assembled and logged through reused buffers.
  EXPECT_EQ(counts.tick_allocations, 0) << "over " << counts.ticks << " ticks";

  // A step is routed, accounted and logged - its demand, decision and
  // battery action - through member records and the writer's frame
  // buffer, and each battery's running order statistic reserved the
  // month's intervals when the month began. The router's plan-rebuild
  // counter is read only on request (LiveEngine::plan_rebuilds), never
  // per step. A new per-step allocation anywhere on the path raises
  // every step.
  EXPECT_EQ(counts.allocating_steps, 0) << "steps that allocated";
  EXPECT_EQ(counts.step_allocations, 0);
}

/// The allocation count as each route() call began, one per step, for
/// runs a test does not drive itself (StepMarkRouter). Reserved up
/// front; a mark past the capacity is dropped rather than grown.
std::vector<std::int64_t> g_step_marks;

/// The price-aware router, counters included, marking each step in
/// g_step_marks.
class StepMarkRouter final : public Router {
 public:
  explicit StepMarkRouter(std::unique_ptr<Router> inner)
      : inner_(std::move(inner)) {}
  void route(const RoutingContext& ctx, Allocation& out) override {
    if (g_step_marks.size() < g_step_marks.capacity()) {
      g_step_marks.push_back(allocations());
    }
    inner_->route(ctx, out);
  }
  [[nodiscard]] std::string_view name() const override { return "step-mark"; }
  [[nodiscard]] std::vector<RouterCounter> counters() const override {
    return inner_->counters();
  }

 private:
  std::unique_ptr<Router> inner_;
};

TEST(AllocFreeLive, ReplayStepsAfterTheFirstAllocateNothing) {
  RouterRegistry& routers = RouterRegistry::instance();
  if (!routers.contains("step-mark")) {
    const auto make = [](const Fixture& f, const ScenarioSpec& spec) {
      return std::make_unique<StepMarkRouter>(
          RouterRegistry::instance().at("price-aware").make(f, spec));
    };
    routers.add("step-mark", RouterEntry{.make = make});
  }
  const Fixture fx = Fixture::make(test::kTestSeed);
  const Period trace = fx.trace.period();
  service::LiveConfig config =
      live_config(Period{trace.begin, trace.begin + 48});
  config.router = "step-mark";
  const std::vector<service::EventRecord> feed =
      live_feed(fx, config, service::LiveEngine(fx, config).meta());

  test::TempFile file("alloc_free_replay.eventlog");
  {
    service::EventLogWriter log(file.path());
    service::LiveEngine live(fx, config, &log);
    (void)drive_counted(live, feed);
    ASSERT_TRUE(live.done());
    log.close();
  }
  const service::RecordedSession session = service::read_session(file.path());
  g_step_marks.clear();
  g_step_marks.reserve(session.steps.size());
  (void)service::replay(fx, session);
  ASSERT_EQ(g_step_marks.size(), 576u);

  // Marks k and k + 1 bracket step k's accounting and observers, the
  // replay loop's checks and step k + 1 up to its routing. The first
  // step sizes the scratch; every later one allocates nothing.
  std::int64_t allocating_steps = 0;
  for (std::size_t k = 1; k + 1 < g_step_marks.size(); ++k) {
    if (g_step_marks[k + 1] != g_step_marks[k]) ++allocating_steps;
  }
  const std::int64_t made = g_step_marks.back() - g_step_marks[1];
  EXPECT_EQ(allocating_steps, 0) << made << " allocations in all";
}

TEST(AllocFreeLive, HubPublishWithoutSubscribersAllocatesNothing) {
  net::SubscriberHub hub(net::SubscriberHubOptions{});
  const std::vector<std::uint8_t> payload(416, 0x5A);
  const std::int64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    hub.publish(
        static_cast<std::uint8_t>(service::RecordType::kRoutingDecision),
        payload);
  }
  EXPECT_EQ(allocations() - before, 0);
  hub.stop();
}

// --- the generators ----------------------------------------------------------

// MarketSimulator and TraceGenerator build every task on the calling
// thread; their workers only draw and write pre-sized rows. A worker
// that allocated would get a glibc arena of its own, kept for the rest
// of the process.
TEST(AllocFreeGenerators, GenerationWorkersAllocateNothing) {
  const market::MarketSimulator sim(test::kTestSeed);
  const traffic::TraceGenerator gen(test::kTestSeed + 1);
  g_owner.store(std::this_thread::get_id());
  const std::int64_t before = g_off_owner.load();
  const market::PriceSet prices = sim.generate(trace_period());
  const traffic::TrafficTrace trace = gen.generate(trace_period());
  EXPECT_EQ(g_off_owner.load() - before, 0);
  EXPECT_EQ(prices.period, trace_period());
  EXPECT_EQ(trace.period(), trace_period());
}

// --- the read half -----------------------------------------------------------

/// A connected loopback socket pair (client side / accepted side).
struct SocketPair {
  net::Listener listener{0};
  net::Socket client;
  net::Socket server;

  SocketPair()
      : client(net::connect_to("127.0.0.1", listener.port(), 2000)),
        server(listener.accept().value()) {}
};

/// `n` price-tick frames, framed as the feeder and the log writer frame
/// them.
std::vector<std::uint8_t> tick_frames(int n) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < n; ++i) {
    service::codec::frame_record(
        bytes, service::RecordType::kPriceTick,
        service::PriceTickRecord{HubId(i % 9), i, 30.0 + i % 50});
  }
  return bytes;
}

// More ticks than one buffer holds, so the reader refills it mid-frame.
constexpr int kTickFrames = 5000;

TEST(AllocFreeRead, SocketTickFramesAllocateNothing) {
  const std::vector<std::uint8_t> bytes = tick_frames(kTickFrames);
  ASSERT_GT(bytes.size(), service::codec::kReadBufferSize);
  SocketPair pair;
  std::thread writer([&] {
    try {
      pair.client.write_all(bytes.data(), bytes.size(), 10'000);
    } catch (const net::NetError& e) {
      ADD_FAILURE() << "writer: " << e.what();
    }
    pair.client.close();
  });
  int frames = 0;
  std::int64_t made = 0;
  try {
    net::FrameReader reader(pair.server);
    if (reader.next(10'000)) ++frames;  // the first frame may size things
    const std::int64_t before = allocations();
    while (reader.next(10'000)) ++frames;
    made = allocations() - before;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "reader: " << e.what();
  }
  pair.server.close();  // a reader that stopped early unblocks the writer
  writer.join();
  EXPECT_EQ(frames, kTickFrames);
  EXPECT_EQ(made, 0) << "over " << frames - 1 << " frames";
}

TEST(AllocFreeRead, LogTickFramesAllocateNothing) {
  test::TempFile file("alloc_free_read.eventlog");
  {
    service::EventLogWriter log(file.path());
    for (int i = 0; i < kTickFrames; ++i) {
      log.write(service::PriceTickRecord{HubId(i % 9), i, 30.0 + i % 50});
    }
    log.close();
  }
  service::EventLogReader reader(file.path());
  ASSERT_TRUE(reader.next().has_value());  // the first frame may size things
  int frames = 1;
  const std::int64_t before = allocations();
  while (reader.next()) ++frames;
  const std::int64_t made = allocations() - before;
  EXPECT_EQ(frames, kTickFrames);
  EXPECT_EQ(made, 0) << "over " << frames - 1 << " frames";
}

/// A frame header that claims the largest payload a reader accepts, and
/// nothing behind it.
std::vector<std::uint8_t> lying_header() {
  std::vector<std::uint8_t> bytes;
  service::codec::put(bytes, service::RecordType::kPriceTick);
  service::codec::put(bytes, service::codec::kMaxFramePayload);
  return bytes;
}

constexpr std::size_t kLargeBlock = 256u << 10;

TEST(AllocFreeRead, LyingLengthPrefixOnASocketAllocatesNoLargeBlock) {
  const std::vector<std::uint8_t> bytes = lying_header();
  SocketPair pair;
  pair.client.write_all(bytes.data(), bytes.size(), 2000);
  pair.client.close();
  g_largest.store(0, std::memory_order_relaxed);
  net::FrameReader reader(pair.server);
  try {
    (void)reader.next(2000);
    FAIL() << "a header with nothing behind it must not read back";
  } catch (const net::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("torn frame"), std::string::npos)
        << e.what();
  }
  EXPECT_LE(g_largest.load(std::memory_order_relaxed), kLargeBlock);
}

TEST(AllocFreeRead, LyingLengthPrefixInALogAllocatesNoLargeBlock) {
  test::TempFile file("alloc_free_lying.eventlog");
  service::EventLogWriter(file.path()).close();
  {
    const std::vector<std::uint8_t> bytes = lying_header();
    std::ofstream out(file.path(), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  g_largest.store(0, std::memory_order_relaxed);
  service::EventLogReader reader(file.path());
  try {
    (void)reader.next();
    FAIL() << "a header with nothing behind it must not read back";
  } catch (const service::EventLogError& e) {
    EXPECT_NE(std::string(e.what()).find("torn frame"), std::string::npos)
        << e.what();
  }
  EXPECT_LE(g_largest.load(std::memory_order_relaxed), kLargeBlock);
}

}  // namespace
}  // namespace cebis::core
