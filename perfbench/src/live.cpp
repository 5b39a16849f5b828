// The live path: one in-process service::LiveEngine session over the
// whole 24-day trace on the 5-minute market, fed in net::interleave_feed
// order as fast as the engine accepts it, logging to an event log that
// service::read_session + service::replay then re-run. Tick assembly,
// the service step, storage and event-log writes and reads carry the
// load; no socket and no pool.

#include <deque>
#include <optional>
#include <variant>

#include "bench.h"
#include "core/router_registry.h"
#include "net/feed_client.h"
#include "obs/metrics.h"
#include "service/replay.h"
#include "storage/storage_controller.h"

namespace perfbench {

namespace {

using namespace cebis;

struct LiveInputs {
  service::LiveConfig config;
  SessionFeed feed;
  std::vector<service::EventRecord> plan;  ///< interleave_feed order
};

LiveInputs make_inputs(const Context& ctx) {
  LiveInputs in;
  in.config = session_config(session_period(ctx));
  in.feed = make_feed(*ctx.fixture, in.config.period);
  in.plan = net::interleave_feed(in.feed.meta, in.feed.ticks, in.feed.steps);
  return in;
}

struct LiveRun {
  core::RunResult result;
  std::vector<double> decision_us;  ///< per step
  double wall_s = 0.0;              ///< LiveEngine construction to finish()
  std::int64_t log_bytes = 0;
};

/// Drives one session the way net::Server drives its engine: every tick
/// as it arrives, steps buffered until the seal gate opens. A step's
/// decision latency runs from the first tick of the interval that
/// completed its inputs to its advance() returning.
LiveRun drive_session(const core::Fixture& fixture,
                      const service::LiveConfig& config,
                      const std::vector<service::EventRecord>& plan,
                      const std::string& log_path, SpanLog* log) {
  const std::int64_t sph = config.samples_per_hour;
  const std::int64_t first_interval =
      (config.period.begin - config.delay_hours) * sph;
  const std::int64_t step0_interval = config.period.begin * sph;
  std::vector<std::int64_t> first_tick_ns(
      static_cast<std::size_t>(config.period.end * sph - first_interval), 0);

  LiveRun run;
  std::optional<service::EventLogWriter> writer;
  {
    const Scope scope(log, "service.log_open");
    writer.emplace(log_path);
  }
  std::optional<service::LiveEngine> live;
  std::deque<const std::vector<double>*> pending;
  const std::int64_t t0 = now_ns();
  {
    const Scope scope(log, "service.open");
    live.emplace(fixture, config, &*writer);
  }
  for (const service::EventRecord& record : plan) {
    if (const auto* tick = std::get_if<service::PriceTickRecord>(&record)) {
      std::int64_t& first = first_tick_ns[static_cast<std::size_t>(
          tick->interval - first_interval)];
      if (first == 0) first = now_ns();
      const Scope scope(log, "market.tick", tick->interval - step0_interval);
      live->on_price_tick(tick->hub, tick->interval, tick->price);
    } else if (const auto* step =
                   std::get_if<service::WorkloadStepRecord>(&record)) {
      pending.push_back(&step->demand);
    }
    while (!pending.empty() && !live->done() &&
           live->needed_end() <= live->sealed_end()) {
      const std::int64_t need = live->needed_end();
      {
        const Scope scope(log, "service.advance", live->steps_done());
        live->advance(*pending.front());
      }
      const std::int64_t opened =
          first_tick_ns[static_cast<std::size_t>(need - 1 - first_interval)];
      run.decision_us.push_back(static_cast<double>(now_ns() - opened) / 1e3);
      pending.pop_front();
    }
  }
  check(live->done() && pending.empty(),
        "live session ended with " + std::to_string(pending.size()) +
            " steps unadvanced");
  {
    const Scope scope(log, "service.finish");
    run.result = live->finish();
  }
  run.wall_s = seconds_since(t0);
  {
    const Scope scope(log, "service.close");
    live.reset();
  }
  {
    const Scope scope(log, "service.log_close");
    writer->close();
  }
  run.log_bytes = writer->bytes_written();
  return run;
}

std::int64_t request_of(const service::EventRecord& record,
                        std::int64_t step0_interval) {
  return std::visit(
      [step0_interval](const auto& r) -> std::int64_t {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, service::SessionMeta>) {
          return -1;
        } else if constexpr (std::is_same_v<T, service::PriceTickRecord>) {
          return r.interval - step0_interval;
        } else {
          return r.step;
        }
      },
      record);
}

/// The session's log read frame by frame, re-written to a fresh log, and
/// every record put through the codec: the per-call cost of each.
void log_and_codec_pass(const std::string& log_path,
                        const std::string& copy_path,
                        const SessionFeed& feed, SpanLog* log) {
  const std::int64_t step0_interval =
      feed.meta.period.begin * feed.meta.samples_per_hour;
  std::vector<service::EventRecord> records;
  // Meta, ticks, and per step its demand, decision and battery action.
  records.reserve(1 + feed.ticks.size() + 3 * feed.steps.size());
  {
    std::optional<service::EventLogReader> reader;
    {
      const Scope scope(log, "service.log_open");
      reader.emplace(log_path);
    }
    for (;;) {
      std::optional<service::EventRecord> record;
      {
        const Scope scope(log, "service.log_read", std::int64_t{-1});
        record = reader->next();
      }
      if (!record) break;
      const Scope scope(log, "bench.collect");
      records.push_back(std::move(*record));
    }
  }
  {
    std::optional<service::EventLogWriter> writer;
    {
      const Scope scope(log, "service.log_open");
      writer.emplace(copy_path);
    }
    for (const service::EventRecord& record : records) {
      const Scope scope(log, "service.log_write",
                        request_of(record, step0_interval));
      std::visit([&writer](const auto& r) { writer->write(r); }, record);
    }
    const Scope scope(log, "service.log_close");
    writer->close();
  }
  for (const service::EventRecord& record : records) {
    const std::int64_t request = request_of(record, step0_interval);
    std::vector<std::uint8_t> payload;
    {
      const Scope scope(log, "service.encode", request);
      payload = service::encode_record(record);
    }
    const auto type = static_cast<std::uint8_t>(service::record_type(record));
    const Scope scope(log, "service.decode", request);
    (void)service::decode_record(type, payload, 0);
  }
  const Scope scope(log, "bench.release");
  records = {};
}

/// The live session's engine run driven through Session::step directly,
/// over the fixture's own prices, with the router and the battery
/// controller in timing decorators: the route, storage and accounting
/// cost per step that LiveEngine::advance hides.
core::RunResult drive_twin(const core::Fixture& fixture,
                           const service::LiveConfig& config,
                           const SessionFeed& feed, SpanLog* log) {
  core::ScenarioSpec spec;
  spec.router = config.router;
  spec.config = config.router_config;
  const core::RouterEntry& entry =
      core::RouterRegistry::instance().at(spec.router);
  core::EngineConfig cfg;
  cfg.energy = config.energy;
  cfg.delay_hours = config.delay_hours;
  cfg.enforce_p95 = config.enforce_p95 && !entry.forces_relaxed_p95;

  std::optional<service::PushWorkload> workload;
  {
    const Scope scope(log, "bench.feed");
    workload.emplace(config.period, config.steps_per_hour,
                     fixture.trace.state_count());
    for (const service::WorkloadStepRecord& step : feed.steps) {
      workload->push(step.demand);
    }
  }
  const market::PriceSet* prices = nullptr;
  {
    const Scope scope(log, "market.prices_covering");
    prices = &fixture.prices_covering(
        Period{config.period.begin - config.delay_hours, config.period.end},
        config.samples_per_hour);
  }
  std::optional<core::SimulationEngine> engine;
  {
    const Scope scope(log, "core.engine_make");
    engine.emplace(
        entry.clusters ? entry.clusters(fixture, spec) : fixture.clusters,
        *prices, fixture.distances, cfg);
  }
  std::unique_ptr<core::Router> router;
  {
    const Scope scope(log, "core.router_make");
    router = entry.make(fixture, spec);
  }
  std::optional<storage::StorageController> controller;
  {
    const Scope scope(log, "storage.make");
    controller.emplace(*config.storage);
  }
  std::optional<TimedRouter> timed_router;
  std::optional<TimedObserver> timed_controller;
  core::Router* used_router = router.get();
  core::StepObserver* observer = &*controller;
  if (log != nullptr) {
    timed_router.emplace(*router, *log, -1);
    timed_controller.emplace(
        *controller, *log,
        TimedObserver::Names{"storage.run_begin", "storage.on_step",
                             "storage.run_end"});
    used_router = &*timed_router;
    observer = &*timed_controller;
  }
  core::StepObserver* const observers[] = {observer};
  std::optional<core::SimulationEngine::Session> session;
  {
    const Scope scope(log, "core.begin");
    session.emplace(engine->begin(*workload, *used_router, observers));
  }
  while (!session->done()) {
    const Scope scope(log, "core.step.live", session->steps_done());
    session->step();
  }
  core::RunResult result;
  {
    const Scope scope(log, "core.finish");
    result = session->finish();
  }
  const Scope scope(log, "bench.release");
  session.reset();
  engine.reset();
  workload.reset();
  return result;
}

struct LivePass {
  LiveRun run;
  double replay_s = 0.0;
};

/// The measured work: the session, its replay, and (with `detail`) the
/// log/codec pass and the Session-driven twin.
LivePass live_pass(const Context& ctx, const LiveInputs& in, bool detail,
                   SpanLog* log) {
  const std::string log_path = ctx.run_dir + "/live.eventlog";
  LivePass pass;
  pass.run = drive_session(*ctx.fixture, in.config, in.plan, log_path, log);
  {
    ReplayCheck replayed =
        check_replay(*ctx.fixture, log_path, pass.run.result,
                     in.feed.steps.size(), "live", log);
    pass.replay_s = replayed.wall_s;
    const Scope scope(log, "bench.release");
    replayed = {};
  }
  if (detail) {
    log_and_codec_pass(log_path, ctx.run_dir + "/live-copy.eventlog", in.feed,
                       log);
    const core::RunResult twin =
        drive_twin(*ctx.fixture, in.config, in.feed, log);
    const Scope scope(log, "bench.check");
    const std::string diff = service::diff_run_results(pass.run.result, twin);
    check(diff.empty(), "session-driven live twin differs: " + diff);
  }
  return pass;
}

/// The session and its replay check, as part of the service workload's
/// traffic; the job it times is the net path's.
class LiveMeasure final : public Measure {
 public:
  explicit LiveMeasure(const Context& ctx) : ctx_(ctx), in_(make_inputs(ctx)) {}

  void unit(Report& report) override {
    (void)live_pass(ctx_, in_, false, nullptr);
    report.attempted += static_cast<std::int64_t>(in_.feed.steps.size()) + 1;
  }

 private:
  const Context& ctx_;
  LiveInputs in_;
};

}  // namespace

std::unique_ptr<Measure> live_measure(const Context& ctx) {
  return std::make_unique<LiveMeasure>(ctx);
}

TracedPath trace_live(const Context& ctx, Report& report) {
  const LiveInputs in = make_inputs(ctx);
  std::int64_t t0 = now_ns();
  const LivePass reference = live_pass(ctx, in, true, nullptr);
  const std::int64_t untraced_ns = now_ns() - t0;

  SpanLog& log = ctx.tracing->main();
  const std::size_t first = log.size();
  t0 = now_ns();
  const LivePass pass = live_pass(ctx, in, true, &log);
  const TracedPath traced{first, log.size(), now_ns() - t0, untraced_ns};
  report.attempted += 2 * (static_cast<std::int64_t>(in.feed.steps.size()) + 2);

  // The session's walls move with the shared host's speed by more than
  // an end-to-end bound allows, so they are reported here, from the
  // untraced reference pass.
  const auto steps = static_cast<double>(in.feed.steps.size());
  report.set("live_steps_per_s", steps / reference.run.wall_s, "steps/s");
  report.set("live_decision_p50_us",
             percentile(reference.run.decision_us, 50.0), "us");
  report.set("replay_steps_per_s", steps / reference.replay_s, "steps/s");

  std::map<std::string, SpanStats> spans;
  collect_into(spans, log, first, log.size());
  const auto ms = [](double ns) { return ns / 1e6; };
  report.set("market.tick_ns", median(spans["market.tick"].self_ns), "ns");
  report.set("storage.on_step_ns", median(spans["storage.on_step"].self_ns),
             "ns");
  report.set("storage.run_end_ms", ms(median(spans["storage.run_end"].self_ns)),
             "ms");
  report.set("service.open_ms", ms(median(spans["service.open"].self_ns)),
             "ms");
  report.set("service.finish_ms", ms(median(spans["service.finish"].self_ns)),
             "ms");
  report.set("service.advance_ns", median(spans["service.advance"].self_ns),
             "ns");
  report.set("service.advance_p99_ns",
             percentile(spans["service.advance"].self_ns, 99.0), "ns");
  report.set("service.log_write_ns", median(spans["service.log_write"].self_ns),
             "ns");
  // The p99 pools both passes' steps.
  std::vector<double> decision_us = reference.run.decision_us;
  decision_us.insert(decision_us.end(), pass.run.decision_us.begin(),
                     pass.run.decision_us.end());
  report.set("live_decision_p99_us", percentile(decision_us, 99.0), "us");
  report.set("service.log_bytes_per_step",
             static_cast<double>(pass.run.log_bytes) /
                 static_cast<double>(in.feed.steps.size()),
             "B/step");
  report.set("service.log_read_ns", median(spans["service.log_read"].self_ns),
             "ns");
  report.set("service.replay_ms", ms(median(spans["service.replay"].self_ns)),
             "ms");
  report.set("service.encode_ns", median(spans["service.encode"].self_ns),
             "ns");
  report.set("service.decode_ns", median(spans["service.decode"].self_ns),
             "ns");
  return traced;
}

void measure_metrics_overhead(const Context& ctx, double seconds,
                              Report& report) {
  const LiveInputs in = make_inputs(ctx);
  const std::string log_path = ctx.run_dir + "/overhead.eventlog";
  const std::size_t min_pairs = ctx.tiny ? 1 : 3;
  std::vector<double> ratios;
  const std::int64_t start = now_ns();
  while (ratios.size() < min_pairs ||
         seconds_since(start) *
                 (1.0 + 1.0 / static_cast<double>(ratios.size())) <=
             seconds) {
    obs::MetricsRegistry registry;
    service::LiveConfig metered = in.config;
    metered.taps.metrics = &registry;
    // Alternate which side runs first so drift cancels across pairs.
    const bool metered_first = ratios.size() % 2 == 1;
    const service::LiveConfig& a = metered_first ? metered : in.config;
    const service::LiveConfig& b = metered_first ? in.config : metered;
    const double a_s =
        drive_session(*ctx.fixture, a, in.plan, log_path, nullptr).wall_s;
    const double b_s =
        drive_session(*ctx.fixture, b, in.plan, log_path, nullptr).wall_s;
    ratios.push_back(metered_first ? a_s / b_s : b_s / a_s);
  }
  report.set("obs.metrics_overhead_ratio", median(ratios), "ratio");
}

}  // namespace perfbench
