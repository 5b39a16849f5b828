#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "base/parallel.h"
#include "core/router_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cebis::core {

namespace {

std::vector<geo::LatLon> cluster_locations(const std::vector<Cluster>& clusters) {
  std::vector<geo::LatLon> out;
  out.reserve(clusters.size());
  for (const auto& c : clusters) out.push_back(c.location);
  return out;
}

/// The synthetic replay window for a spec: an explicit override, or the
/// study period with a 48h front margin so delayed routing (hour -
/// delay) stays inside the priced period.
Period synthetic_window_of(const ScenarioSpec& spec) {
  if (spec.synthetic_window.hours() > 0) return spec.synthetic_window;
  const Period study = study_period();
  return Period{study.begin + 48, study.end};
}

std::unique_ptr<Workload> make_workload(const Fixture& f, const ScenarioSpec& spec) {
  switch (spec.workload) {
    case WorkloadKind::kTrace24Day:
      return std::make_unique<TraceWorkload>(f.trace, f.allocation);
    case WorkloadKind::kSynthetic39Month:
      return std::make_unique<SyntheticWorkload39>(f.synthetic, f.allocation,
                                                   synthetic_window_of(spec));
  }
  throw std::invalid_argument("make_workload: bad kind");
}

}  // namespace

Fixture Fixture::make(std::uint64_t seed) {
  traffic::TraceGenerator trace_gen(seed + 1);

  // Prices are materialized lazily (window-invariant generator): a
  // 24-day scenario only ever pays for the hours it replays, while the
  // first full-study request builds the whole 39-month history.
  auto history = std::make_shared<market::LazyPriceHistory>(seed);
  traffic::TrafficTrace trace = trace_gen.generate(trace_period());
  traffic::BaselineAllocation allocation(seed + 2);
  traffic::ClusterLoads loads = traffic::baseline_cluster_loads(trace, allocation);
  std::vector<Cluster> clusters = build_clusters(loads);
  geo::DistanceModel distances(geo::StateRegistry::instance().all(),
                               cluster_locations(clusters));
  traffic::SyntheticWorkload synthetic(trace);

  return Fixture{seed,
                 std::move(history),
                 std::move(trace),
                 std::move(allocation),
                 std::move(loads),
                 std::move(clusters),
                 std::move(distances),
                 std::move(synthetic)};
}

std::size_t Fixture::cheapest_cluster() const {
  const std::vector<double>& means = price_history->study_rt_means();
  std::size_t best = 0;
  double best_mean = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const double mean = means.at(clusters[c].hub.index());
    if (mean < best_mean) {
      best_mean = mean;
      best = c;
    }
  }
  return best;
}

RunPlan plan_run(const Fixture& fixture, const ScenarioSpec& spec,
                 Period workload_period, obs::Taps taps) {
  if (spec.storage.has_value() && spec.routing_prices != nullptr) {
    // The StorageController meters StepView::billing_price, which under
    // a routing_prices override is a synthetic objective, so the tariff
    // bill (and the policies' price thresholds) would not be dollars.
    // Refuse rather than bill nonsense; a real-dollar spot override on
    // StorageSpec is the extension point if this composition is ever
    // needed.
    throw std::invalid_argument(
        "run_scenarios: ScenarioSpec::storage cannot compose with a "
        "routing_prices override (the tariff would be billed in "
        "objective units, not dollars)");
  }
  const RouterEntry& entry = RouterRegistry::instance().at(spec.router);
  RunPlan plan;
  plan.clusters =
      entry.clusters ? entry.clusters(fixture, spec) : fixture.clusters;
  plan.engine.energy = spec.energy;
  plan.engine.delay_hours = spec.delay_hours;
  plan.engine.delay_steps = spec.delay_steps;
  plan.engine.enforce_p95 = spec.enforce_p95 && !entry.forces_relaxed_p95;
  plan.engine.capacity_factor = spec.capacity_factor;
  plan.engine.pue_of = spec.pue_of;
  plan.engine.taps = taps;
  // An explicit routing_prices override carries its own native interval.
  const int sph = spec.routing_prices != nullptr
                      ? spec.routing_prices->samples_per_hour
                      : market_samples_per_hour(spec);
  plan.priced = priced_window(workload_period, spec.delay_hours,
                              spec.delay_steps, sph);
  plan.router = entry.make(fixture, spec);
  if (spec.storage.has_value()) {
    plan.storage = std::make_unique<storage::StorageController>(*spec.storage,
                                                                taps.metrics);
  }
  return plan;
}

std::vector<RunResult> run_scenarios(const Fixture& fixture,
                                     std::span<const ScenarioSpec> specs,
                                     const SweepOptions& options,
                                     SweepStats* stats) {
  SweepStats local;
  std::vector<RunResult> out(specs.size());

  // Phase timing and spans are observation only: the clock reads never
  // feed a decision, so results are byte-identical with or without them.
  // cebis-lint: allow(wall-clock) feeds only SweepStats wall-ms telemetry, never a result field
  using sweep_clock = std::chrono::steady_clock;
  const auto ms_since = [](sweep_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(sweep_clock::now() - t0)
        .count();
  };
  const sweep_clock::time_point plan_t0 = sweep_clock::now();
  obs::Tracer::Span plan_span =
      obs::maybe_span(options.taps.tracer, "sweep/plan", "sweep");

  // Materialize the union of the fixture-priced windows up front - one
  // union window per requested market resolution - so every spec in the
  // sweep reads one PriceSet per resolution and short sweeps never build
  // the full 39-month history. This runs before plan_run calls any
  // factory, so it derives each window itself; specs carrying their own
  // routing_prices need none.
  std::map<int, const market::PriceSet*> fixture_prices;
  {
    std::map<int, Period> needs;
    for (const ScenarioSpec& spec : specs) {
      if (spec.routing_prices != nullptr) continue;
      const int sph = market_samples_per_hour(spec);
      const Period w = priced_window(scenario_period(fixture, spec),
                                     spec.delay_hours, spec.delay_steps, sph);
      const auto [it, inserted] = needs.emplace(sph, w);
      if (!inserted) {
        it->second.begin = std::min(it->second.begin, w.begin);
        it->second.end = std::max(it->second.end, w.end);
      }
    }
    for (const auto& [sph, need] : needs) {
      fixture_prices[sph] = &fixture.prices_covering(need, sph);
    }
  }

  // --- Plan phase (serial, spec order) --------------------------------------
  //
  // Everything that can touch shared mutable state or reject a spec
  // happens here, so a bad spec fails the sweep before any cell runs:
  // each cell's workload and engine, router factories (static-cheapest
  // and the consolidated-cluster factory resolve Fixture::cheapest_cluster
  // at make-time, materializing study means lazily), storage
  // controllers and observer lists. After this phase every cell only
  // reads immutable inputs.

  /// One planned sweep cell: the engine, workload, router and storage
  /// controller it owns, its observers (the spec's, then the
  /// controller) and whether worker threads may run it.
  struct Cell {
    const ScenarioSpec* spec = nullptr;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<SimulationEngine> engine;
    std::unique_ptr<Router> router;
    std::unique_ptr<storage::StorageController> storage;
    std::vector<StepObserver*> observers;
    bool pool_safe = true;
  };
  std::vector<Cell> cells(specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    RunPlan plan = plan_run(fixture, spec, scenario_period(fixture, spec),
                            options.taps);
    // Fixture-priced specs bill on the resolution the
    // market_interval_minutes knob selects.
    const market::PriceSet& prices =
        spec.routing_prices != nullptr
            ? *spec.routing_prices
            : *fixture_prices.at(market_samples_per_hour(spec));

    Cell& cell = cells[i];
    cell.spec = &spec;
    cell.workload = make_workload(fixture, spec);
    cell.engine = std::make_unique<SimulationEngine>(
        std::move(plan.clusters), prices, fixture.distances, plan.engine);
    cell.router = std::move(plan.router);
    cell.storage = std::move(plan.storage);
    cell.observers = spec.observers;
    if (cell.storage) cell.observers.push_back(cell.storage.get());
    // Caller-supplied std::function state (observers, engine hooks) may
    // not be thread-safe; those cells stay on the calling thread. The
    // StorageController is per-cell, so storage cells pool.
    cell.pool_safe =
        spec.observers.empty() && !spec.capacity_factor && !spec.pue_of;
  }

  plan_span.end();
  local.plan_wall_ms = ms_since(plan_t0);

  if (options.taps.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *options.taps.metrics;
    // Gauges snapshot the shared lazy history's state as of this plan
    // phase; counters accumulate across sweeps.
    metrics
        .gauge("cebis_price_history_materialized_hours",
               "Hub-hours of price data the lazy history has materialized")
        .set(static_cast<double>(fixture.price_history->materialized_hours()));
    metrics
        .gauge("cebis_price_history_generations",
               "Price-set (re)generations incl. widenings")
        .set(static_cast<double>(fixture.price_history->generations()));
    metrics
        .counter("cebis_sweep_cells_total", "Sweep cells executed")
        .add(static_cast<double>(specs.size()));
  }

  // --- Run phase (concurrent) -----------------------------------------------
  //
  // Each cell owns its engine, workload, router, storage controller,
  // observers list and result slot, so cells never share mutable state.

  local.cell_wall_ms.assign(specs.size(), 0.0);
  auto run_cell = [&cells, &out, &options, &local, &ms_since](std::size_t i) {
    const sweep_clock::time_point cell_t0 = sweep_clock::now();
    obs::Tracer::Span cell_span = obs::maybe_span(
        options.taps.tracer, "sweep/cell", "sweep",
        {{"spec", std::to_string(i)}, {"router", cells[i].spec->router}});
    const Cell& cell = cells[i];
    out[i] = cell.engine->run(*cell.workload, *cell.router, cell.observers);
    // Each cell owns its slot (spec-indexed, like `out`), so the
    // parallel fan-out writes race-free.
    local.cell_wall_ms[i] = ms_since(cell_t0);
  };

  std::vector<std::size_t> pooled;
  std::vector<std::size_t> pinned;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    (cells[i].pool_safe ? pooled : pinned).push_back(i);
  }
  local.parallel_cells = pooled.size();
  local.serial_cells = pinned.size();

  int threads = options.threads <= 0 ? default_thread_count() : options.threads;
  threads = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(threads, 1)),
      std::max<std::size_t>(pooled.size(), 1)));
  local.threads_used = threads;

  const sweep_clock::time_point run_t0 = sweep_clock::now();
  WorkerStats worker_stats;
  // Pinned cells first, in spec order, on the calling thread (their
  // observers may mutate caller state); a pinned failure skips the
  // fan-out. Then the pool covers the pure cells (width 1 is an
  // in-order loop on the calling thread); `pooled` is sorted, so
  // parallel_for_index's lowest-index exception contract reports the
  // lowest throwing *spec* index among them.
  for (const std::size_t i : pinned) run_cell(i);
  parallel_for_index(
      static_cast<std::int64_t>(pooled.size()), threads,
      [&](std::int64_t j) { run_cell(pooled[static_cast<std::size_t>(j)]); },
      options.taps.metrics != nullptr ? &worker_stats : nullptr);
  local.run_wall_ms = ms_since(run_t0);
  for (std::size_t i = 0; i < local.cell_wall_ms.size(); ++i) {
    if (local.cell_wall_ms[i] > local.cell_wall_ms[local.slowest_cell]) {
      local.slowest_cell = i;
    }
  }

  if (options.taps.metrics != nullptr && !worker_stats.cells.empty()) {
    // Per-worker fan-out balance: claimed cells, busy and idle seconds
    // (idle = waiting on the tail of the fan-out after the last claim).
    obs::MetricsRegistry& metrics = *options.taps.metrics;
    for (std::size_t w = 0; w < worker_stats.cells.size(); ++w) {
      const obs::Labels labels{{"worker", std::to_string(w)}};
      metrics
          .counter("cebis_sweep_worker_cells_total",
                   "Sweep cells claimed per pool worker", labels)
          .add(static_cast<double>(worker_stats.cells[w]));
      metrics
          .counter("cebis_sweep_worker_busy_seconds_total",
                   "Time pool workers spent inside cells", labels)
          .add(worker_stats.busy_ms[w] / 1e3);
      metrics
          .counter("cebis_sweep_worker_idle_seconds_total",
                   "Pool worker time not spent inside cells", labels)
          .add(std::max(0.0, worker_stats.wall_ms - worker_stats.busy_ms[w]) /
               1e3);
    }
  }

  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<RunResult> run_scenarios(const Fixture& fixture,
                                     std::span<const ScenarioSpec> specs,
                                     SweepStats* stats) {
  return run_scenarios(fixture, specs, SweepOptions{}, stats);
}

RunResult run_scenario(const Fixture& fixture, const ScenarioSpec& spec) {
  std::vector<RunResult> results =
      run_scenarios(fixture, {&spec, 1}, SweepOptions{.threads = 1});
  return std::move(results.front());
}

Period scenario_period(const Fixture& fixture, const ScenarioSpec& spec) {
  switch (spec.workload) {
    case WorkloadKind::kTrace24Day:
      return fixture.trace.period();
    case WorkloadKind::kSynthetic39Month:
      return synthetic_window_of(spec);
  }
  throw std::invalid_argument("scenario_period: bad kind");
}

SavingsReport scenario_savings(const Fixture& fixture, const ScenarioSpec& spec) {
  ScenarioSpec baseline = spec;
  baseline.router = "baseline";
  baseline.config = std::monostate{};
  baseline.routing_prices = nullptr;
  baseline.observers.clear();
  baseline.storage.reset();
  const ScenarioSpec pair[] = {std::move(baseline), spec};
  std::vector<RunResult> results = run_scenarios(fixture, pair);
  return compare(results[0], results[1]);
}

}  // namespace cebis::core
