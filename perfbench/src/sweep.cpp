// The sweep path: one core::run_scenarios call over the paper's figure
// grid at pool width 4, then the same grid at width 1. Routing, plan
// rebuilds, accounting and the worker pool carry the load; no
// connection, event log or battery is involved.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "bench.h"
#include "core/router_registry.h"
#include "core/workload.h"
#include "energy/energy_model.h"
#include "service/replay.h"

namespace perfbench {

namespace {

using namespace cebis;

/// The nproc of the 4-vCPU VM the benchmark was tuned on; fixed, so the
/// workload is the same everywhere.
constexpr int kPoolWidth = 4;

enum class CellKind { kStudy, kTrace };

struct Grid {
  std::vector<core::ScenarioSpec> specs;
  std::vector<CellKind> kinds;

  void add(core::ScenarioSpec spec, CellKind kind) {
    specs.push_back(std::move(spec));
    kinds.push_back(kind);
  }
};

/// Fig 18 on the 39-month hourly synthetic (4 cells: every step is a new
/// hour, so the price-aware plan is rebuilt every step), then Fig 16/17
/// on the 24-day 5-minute trace with hourly prices (13 cells: one rebuild
/// per 12 steps, and two engines' price vectors shared by all 13).
Grid make_grid(bool tiny) {
  Grid grid;
  const energy::EnergyModelParams energy = energy::optimistic_future_params();

  core::ScenarioSpec study{.router = "baseline",
                           .energy = energy,
                           .workload = core::WorkloadKind::kSynthetic39Month};
  if (tiny) {
    const Period s = study_period();
    study.synthetic_window = Period{s.begin + 48, s.begin + 48 + 14 * 24};
  }
  grid.add(study, CellKind::kStudy);
  for (const double km : {1000.0, 1500.0, 2500.0}) {
    core::ScenarioSpec s = study;
    s.router = "price-aware";
    s.config = core::PriceAwareConfig{.distance_threshold = Km{km}};
    s.enforce_p95 = false;
    grid.add(s, CellKind::kStudy);
  }

  const core::ScenarioSpec trace{.router = "baseline",
                                 .energy = energy,
                                 .workload = core::WorkloadKind::kTrace24Day};
  grid.add(trace, CellKind::kTrace);
  for (const double km : {0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0}) {
    for (const bool follow : {false, true}) {
      core::ScenarioSpec s = trace;
      s.router = "price-aware";
      s.config = core::PriceAwareConfig{.distance_threshold = Km{km}};
      s.enforce_p95 = follow;
      grid.add(s, CellKind::kTrace);
    }
  }
  return grid;
}

/// The hourly window one cell prices: its workload period plus the
/// front margin the delayed routing price reads.
Period priced_window(const core::Fixture& fixture,
                     const core::ScenarioSpec& spec) {
  const Period p = core::scenario_period(fixture, spec);
  return Period{p.begin - spec.delay_hours, p.end};
}

void check_against_serial(const std::vector<core::RunResult>& serial,
                          const std::vector<core::RunResult>& other,
                          const char* what) {
  check(other.size() == serial.size(),
        std::string(what) + " cell count differs");
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string diff = service::diff_run_results(serial[i], other[i]);
    check(diff.empty(), std::string(what) + " cell " + std::to_string(i) +
                            " differs from its serial twin: " + diff);
  }
}

void check_hit_hours(const Grid& grid,
                     const std::vector<core::RunResult>& serial) {
  std::optional<double> hit_hours;
  for (std::size_t i = 0; i < grid.specs.size(); ++i) {
    if (grid.kinds[i] != CellKind::kTrace) continue;
    if (!hit_hours) hit_hours = serial[i].hit_hours;
    check(serial[i].hit_hours == *hit_hours,
          "trace cell " + std::to_string(i) + " served " +
              std::to_string(serial[i].hit_hours) +
              " hit-hours, the first trace cell " + std::to_string(*hit_hours));
  }
}

struct Widths {
  std::vector<core::RunResult> wide;
  std::vector<core::RunResult> serial;
  core::SweepStats wide_stats;
  core::SweepStats serial_stats;
  double wide_s = 0.0;
  double serial_s = 0.0;
};

/// The grid at pool width 4 and at width 1, checked cell for cell.
Widths run_both_widths(const Context& ctx, const Grid& grid, SpanLog* log) {
  Widths w;
  std::int64_t t0 = now_ns();
  {
    const Scope scope(log, "core.run_scenarios");
    w.wide = core::run_scenarios(*ctx.fixture, grid.specs,
                                 core::SweepOptions{.threads = kPoolWidth},
                                 &w.wide_stats);
  }
  w.wide_s = seconds_since(t0);
  t0 = now_ns();
  {
    const Scope scope(log, "core.run_scenarios");
    w.serial = core::run_scenarios(*ctx.fixture, grid.specs,
                                   core::SweepOptions{.threads = 1},
                                   &w.serial_stats);
  }
  w.serial_s = seconds_since(t0);
  const Scope scope(log, "bench.check");
  check_against_serial(w.serial, w.wide, "width-4");
  check_hit_hours(grid, w.serial);
  return w;
}

struct DrivenCell {
  core::RunResult result;
  std::int64_t steps = 0;
  std::int64_t plan_rebuilds = -1;  ///< -1: the router has no plan
};

/// One cell driven through SimulationEngine::begin/step/finish, built
/// from the same public calls run_scenarios makes. With a log, the
/// router is wrapped in a TimedRouter and every call gets a span tagged
/// with the cell index.
DrivenCell drive_cell(const Context& ctx, const core::ScenarioSpec& spec,
                      CellKind kind, std::int64_t cell, SpanLog* log) {
  const core::Fixture& fixture = *ctx.fixture;
  const core::RouterEntry& entry =
      core::RouterRegistry::instance().at(spec.router);

  core::EngineConfig cfg;
  cfg.energy = spec.energy;
  cfg.delay_hours = spec.delay_hours;
  cfg.delay_steps = spec.delay_steps;
  cfg.enforce_p95 = spec.enforce_p95 && !entry.forces_relaxed_p95;

  const market::PriceSet* prices = nullptr;
  {
    const Scope scope(log, "market.prices_covering", cell);
    prices = &fixture.prices_covering(priced_window(fixture, spec), 1);
  }
  std::unique_ptr<core::SimulationEngine> engine;
  {
    const Scope scope(log, "core.engine_make", cell);
    engine = std::make_unique<core::SimulationEngine>(
        entry.clusters ? entry.clusters(fixture, spec) : fixture.clusters,
        *prices, fixture.distances, cfg);
  }
  std::unique_ptr<core::Workload> workload;
  {
    const Scope scope(log, "core.workload_make", cell);
    if (kind == CellKind::kTrace) {
      workload = std::make_unique<core::TraceWorkload>(fixture.trace,
                                                       fixture.allocation);
    } else {
      workload = std::make_unique<core::SyntheticWorkload39>(
          fixture.synthetic, fixture.allocation,
          core::scenario_period(fixture, spec));
    }
  }
  std::unique_ptr<core::Router> router;
  {
    const Scope scope(log, "core.router_make", cell);
    router = entry.make(fixture, spec);
  }
  std::optional<TimedRouter> timed;
  if (log != nullptr) timed.emplace(*router, *log, cell);
  core::Router& used =
      timed ? static_cast<core::Router&>(*timed) : *router;

  std::optional<core::SimulationEngine::Session> session;
  {
    const Scope scope(log, "core.begin", cell);
    session.emplace(engine->begin(*workload, used));
  }
  const char* step_name =
      kind == CellKind::kStudy ? "core.step.study" : "core.step.trace";
  while (!session->done()) {
    const Scope scope(log, step_name, cell);
    session->step();
  }
  DrivenCell out;
  out.steps = session->steps_done();
  {
    const Scope scope(log, "core.finish", cell);
    out.result = session->finish();
  }
  out.plan_rebuilds = plan_rebuilds(*router);
  return out;
}

struct SweepPass {
  Widths widths;
  std::int64_t planned_steps = 0;  ///< steps of cells whose router plans
  std::int64_t plan_rebuilds = 0;
};

/// Both widths, then every cell driven through a Session and checked
/// against its serial twin.
SweepPass sweep_pass(const Context& ctx, const Grid& grid, SpanLog* log) {
  SweepPass pass;
  pass.widths = run_both_widths(ctx, grid, log);
  for (std::size_t i = 0; i < grid.specs.size(); ++i) {
    const auto cell = static_cast<std::int64_t>(i);
    const DrivenCell driven =
        drive_cell(ctx, grid.specs[i], grid.kinds[i], cell, log);
    const Scope scope(log, "bench.check", cell);
    const std::string diff =
        service::diff_run_results(pass.widths.serial[i], driven.result);
    check(diff.empty(), "session-driven cell " + std::to_string(i) +
                            " differs from its serial twin: " + diff);
    if (driven.plan_rebuilds >= 0) {
      pass.planned_steps += driven.steps;
      pass.plan_rebuilds += driven.plan_rebuilds;
    }
  }
  return pass;
}

std::vector<double> cell_walls(const Grid& grid, const core::SweepStats& stats,
                               CellKind kind) {
  std::vector<double> out;
  for (std::size_t i = 0; i < grid.specs.size(); ++i) {
    if (grid.kinds[i] == kind) out.push_back(stats.cell_wall_ms[i]);
  }
  return out;
}

/// The sweep workload's job is the grid at pool width 4; the width-1 run
/// is its output check.
class SweepMeasure final : public Measure {
 public:
  explicit SweepMeasure(const Context& ctx)
      : ctx_(ctx), grid_(make_grid(ctx.tiny)) {}

  void unit(Report& report) override {
    const Widths w = run_both_widths(ctx_, grid_, nullptr);
    wide_ms_.push_back(w.wide_s * 1e3);
    report.attempted += static_cast<std::int64_t>(2 * grid_.specs.size());
  }

  void finish(Report& report) override {
    report.set("job_ms", median(wide_ms_), "ms");
  }

 private:
  const Context& ctx_;
  Grid grid_;
  std::vector<double> wide_ms_;
};

}  // namespace

std::vector<Period> sweep_price_windows(const core::Fixture& fixture,
                                        bool tiny) {
  const Grid grid = make_grid(tiny);
  const Period trace = fixture.trace.period();
  Period all{trace.begin - 1, trace.end};
  for (const core::ScenarioSpec& spec : grid.specs) {
    const Period w = priced_window(fixture, spec);
    all.begin = std::min(all.begin, w.begin);
    all.end = std::max(all.end, w.end);
  }
  return {Period{trace.begin - 1, trace.end}, all};
}

std::unique_ptr<Measure> sweep_measure(const Context& ctx) {
  return std::make_unique<SweepMeasure>(ctx);
}

TracedPath trace_sweep(const Context& ctx, Report& report) {
  const Grid grid = make_grid(ctx.tiny);
  std::int64_t t0 = now_ns();
  const SweepPass reference = sweep_pass(ctx, grid, nullptr);
  const std::int64_t untraced_ns = now_ns() - t0;

  SpanLog& log = ctx.tracing->main();
  const std::size_t first = log.size();
  t0 = now_ns();
  const SweepPass pass = sweep_pass(ctx, grid, &log);
  const TracedPath traced{first, log.size(), now_ns() - t0, untraced_ns};
  report.attempted += static_cast<std::int64_t>(2 * 3 * grid.specs.size());

  // The serial grid moves with the shared host's speed by more than an
  // end-to-end bound allows, so its wall is reported here.
  report.set("sweep_serial_s", reference.widths.serial_s, "s");
  const core::SweepStats& wide = pass.widths.wide_stats;
  const core::SweepStats& serial = pass.widths.serial_stats;
  report.set("core.sweep_plan_ms", wide.plan_wall_ms, "ms");
  report.set("core.cell_ms.study",
             median(cell_walls(grid, serial, CellKind::kStudy)), "ms");
  report.set("core.cell_ms.trace",
             median(cell_walls(grid, serial, CellKind::kTrace)), "ms");
  report.set("core.slowest_cell_ms", wide.cell_wall_ms[wide.slowest_cell],
             "ms");
  const double busy_ms = std::accumulate(wide.cell_wall_ms.begin(),
                                         wide.cell_wall_ms.end(), 0.0);
  report.set("core.pool_busy_share",
             busy_ms / (wide.threads_used * wide.run_wall_ms), "ratio");

  std::map<std::string, SpanStats> spans;
  collect_into(spans, log, first, log.size());
  report.set("core.step_ns.study", median(spans["core.step.study"].total_ns),
             "ns");
  report.set("core.step_ns.trace", median(spans["core.step.trace"].total_ns),
             "ns");
  report.set("core.route_replay_ns",
             median(spans["core.route.replay"].self_ns), "ns");
  report.set("core.route_rebuild_ns",
             median(spans["core.route.rebuild"].self_ns), "ns");
  report.set("core.rebuilds_per_step",
             static_cast<double>(pass.plan_rebuilds) /
                 static_cast<double>(pass.planned_steps),
             "1/step");
  std::vector<double> account = spans["core.step.study"].self_ns;
  const std::vector<double>& trace_steps = spans["core.step.trace"].self_ns;
  account.insert(account.end(), trace_steps.begin(), trace_steps.end());
  report.set("core.account_ns", median(account), "ns");
  return traced;
}

}  // namespace perfbench
