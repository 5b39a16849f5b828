#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

// Shared pieces of the benchmark binary: the run context every path
// reads, the report it fills, output-check failures, the timing
// decorators the traced run hands the engine, and the session feed the
// live and net paths replay.

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/routing.h"
#include "core/step_observer.h"
#include "service/event_log.h"
#include "service/live_engine.h"
#include "spans.h"

namespace perfbench {

/// A failed output check. The run exits non-zero with this one-line
/// reason and prints no numbers.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The run did not measure what it claims to (the open-loop generator
/// fell too far behind its schedule). Handled like a failed check.
class InvalidRun : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& reason) {
  if (!ok) throw CheckFailed(reason);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: operations attempted and failed, and metrics in
/// the order they were set.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (p in (0, 100]) of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// Owns every span log of a traced run: the main thread's and one per
/// helper thread (subscribers, serve loops).
class Tracing {
 public:
  Tracing() { logs_.push_back(std::make_unique<SpanLog>(0, 1u << 21)); }

  [[nodiscard]] SpanLog& main() { return *logs_.front(); }
  /// A fresh log for a helper thread. Thread-safe.
  [[nodiscard]] SpanLog* thread_log();
  [[nodiscard]] std::vector<const SpanLog*> logs() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;  // guarded by mu_
};

/// Everything a path reads. `tracing` is null in the untraced run.
struct Context {
  const cebis::core::Fixture* fixture = nullptr;
  std::string run_dir;  ///< per-run temp directory for event logs
  bool tiny = false;    ///< smoke-test sizes
  Tracing* tracing = nullptr;
};

/// The traced pass of one path on the main thread: spans [first, last)
/// of the main log, recorded over `wall_ns`, and the wall of the same
/// work untraced (the reference pass).
struct TracedPath {
  std::size_t first = 0;
  std::size_t last = 0;
  std::int64_t wall_ns = 0;
  std::int64_t untraced_ns = 0;

  [[nodiscard]] double trace_overhead() const {
    return static_cast<double>(wall_ns) / static_cast<double>(untraced_ns);
  }

  /// Two passes traced one after the other, with no main-log span in
  /// between, as one.
  [[nodiscard]] TracedPath then(const TracedPath& next) const {
    return {first, next.last, wall_ns + next.wall_ns,
            untraced_ns + next.untraced_ns};
  }

  /// The share of the wall no span accounts for: 1 - (self times of the
  /// spans + spans x `recorder_gap_ns`) / wall. The recorder's own cost
  /// outside each span (see recorder_gap_ns()) counts as benchmark time.
  [[nodiscard]] double ledger_gap(const SpanLog& log,
                                  double recorder_gap_ns) const {
    const double accounted =
        static_cast<double>(covered_ns(log, first, last)) +
        static_cast<double>(last - first) * recorder_gap_ns;
    return 1.0 - accounted / static_cast<double>(wall_ns);
  }
};

// --- the three paths ----------------------------------------------------
//
// *_measure: the untraced measurement of one path, taken one unit of
// work at a time so a run can repeat its workload's paths in rounds over
// its whole duration (bursts of machine noise then touch every unit
// alike, and medians over units absorb them).
// trace_*: one untraced reference pass and one traced pass, then the
// per-layer metrics from the traced pass's spans and the reference
// pass's walls.

/// One path's untraced measurement.
class Measure {
 public:
  Measure() = default;
  virtual ~Measure() = default;
  Measure(const Measure&) = delete;
  Measure& operator=(const Measure&) = delete;

  /// Runs one unit of the path's work, checks its outputs and records
  /// its samples and operation counts.
  virtual void unit(Report& report) = 0;
  /// Reports `job_ms` over every unit run, when the path times the
  /// workload's job.
  virtual void finish(Report& /*report*/) {}
};

/// The hourly price windows the sweep's plan phase materializes: the
/// 24-day trace window, then the union with the 39-month window.
[[nodiscard]] std::vector<cebis::Period> sweep_price_windows(
    const cebis::core::Fixture& fixture, bool tiny);

[[nodiscard]] std::unique_ptr<Measure> sweep_measure(const Context& ctx);
TracedPath trace_sweep(const Context& ctx, Report& report);

[[nodiscard]] std::unique_ptr<Measure> live_measure(const Context& ctx);
TracedPath trace_live(const Context& ctx, Report& report);
/// obs.metrics_overhead_ratio: live sessions with and without a metrics
/// registry, in interleaved pairs, for about `seconds`.
void measure_metrics_overhead(const Context& ctx, double seconds,
                              Report& report);

[[nodiscard]] std::unique_ptr<Measure> net_measure(const Context& ctx);
TracedPath trace_net(const Context& ctx, Report& report);

// --- timing decorators ----------------------------------------------------

/// Wraps the Router handed to a Session: records one span per route()
/// call, classified by whether it bumped the router's plan_rebuilds
/// counter ("core.route.rebuild" / "core.route.replay"; "core.route"
/// for routers without the counter). Reading the counter is benchmark
/// work and gets its own "bench.counter_read" span.
class TimedRouter final : public cebis::core::Router {
 public:
  /// `request` < 0 tags each span with the call index (the step).
  TimedRouter(cebis::core::Router& inner, SpanLog& log, std::int64_t request);

  void route(const cebis::core::RoutingContext& ctx,
             cebis::core::Allocation& out) override;
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<cebis::core::RouterCounter> counters()
      const override {
    return inner_.counters();
  }

 private:
  cebis::core::Router& inner_;
  SpanLog& log_;
  std::int64_t request_;
  std::int64_t calls_ = 0;
  std::int64_t rebuilds_ = -1;  ///< last plan_rebuilds read; -1 = no counter
};

/// Wraps a StepObserver: spans around on_run_begin, each on_step and
/// on_run_end, named "<layer>.run_begin" / ".on_step" / ".run_end".
class TimedObserver final : public cebis::core::StepObserver {
 public:
  struct Names {
    const char* run_begin;
    const char* on_step;
    const char* run_end;
  };
  TimedObserver(cebis::core::StepObserver& inner, SpanLog& log, Names names)
      : inner_(inner), log_(log), names_(names) {}

  void on_run_begin(const cebis::core::RunInfo& info,
                    std::span<const cebis::core::Cluster> clusters) override;
  void on_step(const cebis::core::StepView& view) override;
  void on_run_end(cebis::core::RunResult& result) override;

 private:
  cebis::core::StepObserver& inner_;
  SpanLog& log_;
  Names names_;
};

/// A session log read back and replayed.
struct ReplayCheck {
  cebis::service::RecordedSession session;
  double wall_s = 0.0;  ///< read_session + replay
};

/// service::read_session + service::replay of the log at `log_path`,
/// checked bit for bit against `expected`, and the log checked to hold
/// one RoutingDecision per step (`what` names the session in failures).
[[nodiscard]] ReplayCheck check_replay(const cebis::core::Fixture& fixture,
                                       const std::string& log_path,
                                       const cebis::core::RunResult& expected,
                                       std::size_t steps,
                                       const std::string& what, SpanLog* log);

/// The router's plan_rebuilds counter, or -1 when it has none.
[[nodiscard]] std::int64_t plan_rebuilds(const cebis::core::Router& router);

// --- live/net session inputs -------------------------------------------------

/// One session's recorded inputs, in the event log's record types.
struct SessionFeed {
  cebis::service::SessionMeta meta;
  std::vector<cebis::service::PriceTickRecord> ticks;
  std::vector<cebis::service::WorkloadStepRecord> steps;
};

/// The session both live and net run: price-aware routing over the
/// 5-minute trace on the 5-minute market, a shadow baseline, and a
/// Lyapunov battery behind every cluster billed under a $12/kW-month
/// demand charge (the loggable StorageSpec subset).
[[nodiscard]] cebis::service::LiveConfig session_config(cebis::Period period);

/// The settlement ticks and demand steps of a session over `period`
/// (a window of the trace), synthesized from the fixture the way
/// cebis_feed does. This is the benchmark's own input synthesis.
[[nodiscard]] SessionFeed make_feed(const cebis::core::Fixture& fixture,
                                    cebis::Period period);

/// The window the live session and the net backfill replay: the whole
/// 24-day trace, or its first two days at smoke-test size.
[[nodiscard]] cebis::Period session_period(const Context& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
