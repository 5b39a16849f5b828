#ifndef CEBIS_CORE_EXPERIMENT_H
#define CEBIS_CORE_EXPERIMENT_H

// One-stop experiment fixture and the scenario runner. Benches and
// integration tests build a Fixture once (a lazily materialized price
// history for the study period, the 24-day trace, the baseline
// allocation, clusters and distance model), describe each run as a
// ScenarioSpec (router name + config variant + workload + constraints,
// see core/scenario.h), and execute them - singly via run_scenario or
// as a batched sweep via run_scenarios, which builds each scenario its
// own engine and workload from one plan_run. plan_run is also the one
// place a spec's StorageSpec becomes a storage::StorageController, so
// storage composes onto any router the same way.
//
// Sweeps run their cells CONCURRENTLY (SweepOptions::threads, default
// hardware_concurrency). run_scenarios is structured as a deterministic
// serial plan phase - price prepass, cheapest-cluster resolution,
// workload/engine/router/storage construction, everything that can
// reject a spec or touch the fixture's lazily materialized shared
// state - followed by a fan-out phase in which every cell only reads
// immutable inputs and writes its own pre-sized result slot, so
// results are byte-identical to threads = 1 regardless of scheduling.
// Cells carrying caller-supplied std::function state (observers,
// capacity_factor/pue_of hooks) are never handed to worker threads:
// they execute on the calling thread, in spec order, because the
// runner cannot prove caller code is thread-safe.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/savings.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "market/lazy_price_history.h"
#include "market/market_simulator.h"
#include "storage/storage_controller.h"
#include "traffic/trace_generator.h"

namespace cebis::core {

struct Fixture {
  std::uint64_t seed = 2009;

  /// Lazily materialized price history (see market/lazy_price_history.h).
  /// Access through prices()/prices_covering(), which materialize on
  /// demand; shared so Fixture copies stay cheap and consistent. An
  /// ablation swaps in a different market by pointing this at a
  /// LazyPriceHistory over other PriceModelParams (as
  /// bench_ablation_spike_model does); copies made before the swap keep
  /// the old history.
  std::shared_ptr<market::LazyPriceHistory> price_history;
  traffic::TrafficTrace trace;
  traffic::BaselineAllocation allocation;
  traffic::ClusterLoads baseline_loads;
  std::vector<Cluster> clusters;
  geo::DistanceModel distances;  ///< states x clusters
  traffic::SyntheticWorkload synthetic;

  /// Builds everything deterministically from one seed. The 24-day
  /// trace is generated eagerly; the 39-month price history is
  /// materialized on first use (window-invariant, so 24-day and
  /// 39-month scenarios see identical hours).
  [[nodiscard]] static Fixture make(std::uint64_t seed = 2009);

  /// The full study-period price set (materializes it on first call).
  [[nodiscard]] const market::PriceSet& prices() const {
    return price_history->full();
  }
  /// A price set covering at least `need` at the requested native
  /// interval (`samples_per_hour` must divide 60; 1 = hourly) - the
  /// lazy path scenario runs take; short windows avoid materializing
  /// the whole history, and each resolution is materialized (and grown)
  /// independently.
  [[nodiscard]] const market::PriceSet& prices_covering(
      Period need, int samples_per_hour = 1) const {
    return price_history->cover(need, samples_per_hour);
  }

  /// Index of the cluster whose hub has the lowest mean RT price over
  /// the study period (the static relocation target of §6.3): the
  /// argmin over LazyPriceHistory::study_rt_means, which walks all
  /// 28464 study hours once, reduces them to per-hub means without
  /// retaining the 39-month set, and memoizes them. That first walk
  /// materializes lazily and must not race (run_scenarios resolves it
  /// in its serial plan phase); later calls only read the means.
  [[nodiscard]] std::size_t cheapest_cluster() const;
};

/// How a batched sweep was scheduled and how long its phases took.
struct SweepStats {
  /// Resolved pool width the run phase used (1 = fully serial).
  int threads_used = 1;
  /// Cells eligible for worker threads vs pinned to the calling thread
  /// (caller-supplied observers / engine hooks; see SweepOptions).
  std::size_t parallel_cells = 0;
  std::size_t serial_cells = 0;

  /// Wall-clock per cell, indexed by spec position (ms), and the spec
  /// index of the slowest cell - parallel-sweep skew without a
  /// profiler. Timing only; results never depend on it.
  std::vector<double> cell_wall_ms;
  std::size_t slowest_cell = 0;

  /// Plan- and run-phase wall clock (the run phase includes pinned
  /// cells; with threads > 1 the pooled fan-out overlaps inside it).
  double plan_wall_ms = 0.0;
  double run_wall_ms = 0.0;
};

/// Execution knobs for run_scenarios' fan-out phase.
struct SweepOptions {
  /// Worker count for the run phase. 0 = hardware_concurrency; 1 runs
  /// every cell on the calling thread (results are byte-identical at
  /// any width, guarded in tests/test_scenario_api.cpp). Clamped to the
  /// parallel cell count.
  int threads = 0;

  /// Observability taps (obs::Taps) threaded through every engine the
  /// sweep builds (see EngineConfig::taps) plus sweep-level series:
  /// plan/cell spans, per-worker fan-out counters, the price history's
  /// materialized-hours gauges. Write-only - results stay byte-identical
  /// with or without them (tests/test_obs.cpp mirrors the parallel
  /// determinism guard with metrics on). Borrowed; null = uninstrumented.
  obs::Taps taps;
};

/// One run's construction, resolved from its spec in one place: the
/// scenario runner, the live engine and replay all build through it.
struct RunPlan {
  /// The fixture's clusters, or the router's override (see
  /// RouterEntry::clusters).
  std::vector<Cluster> clusters;
  /// The spec's energy model, delays and engine hooks plus the caller's
  /// taps, with the 95/5 constraint off for routers that force it.
  EngineConfig engine;
  /// The workload period plus the delayed-routing margin (priced_window
  /// at the spec's market interval, or its routing_prices' own).
  Period priced{0, 0};
  std::unique_ptr<Router> router;
  /// The battery behind the meter when the spec carries a StorageSpec,
  /// else null. Attach it after the spec's own observers; its raw/net
  /// tariff accounting lands in RunResult::storage.
  std::unique_ptr<storage::StorageController> storage;
};

/// Resolves `spec` through the RouterRegistry for a run over
/// `workload_period`, with `taps` in the engine config and the storage
/// controller's metrics. Throws std::invalid_argument for an unknown
/// router, a config its factory rejects, a market interval that does
/// not divide the hour, a StorageSpec the controller rejects, or
/// storage composed with a routing_prices override.
[[nodiscard]] RunPlan plan_run(const Fixture& fixture, const ScenarioSpec& spec,
                               Period workload_period, obs::Taps taps = {});

/// Runs one scenario against the fixture.
[[nodiscard]] RunResult run_scenario(const Fixture& fixture,
                                     const ScenarioSpec& spec);

/// Runs a sweep, returning results in spec order. Every spec gets its
/// own engine, workload, router and storage controller, all built in
/// the serial plan phase, so a spec that any of them rejects throws
/// before any cell runs.
/// Results are identical to calling run_scenario per spec - cells run
/// concurrently (SweepOptions::threads) but land in a pre-sized vector
/// indexed by spec position, and the plan phase (construction, lazy
/// price materialization) stays serial, so output is independent of
/// scheduling. Cells pinned to the calling thread run first, in spec
/// order, then the pool runs the rest. A pinned cell that throws
/// aborts the sweep before any pooled cell starts; a pooled cell that
/// throws stops the distribution of unstarted cells and rethrows after
/// every in-flight cell completed (lowest throwing spec index among
/// the pooled cells wins). `stats`, when given, reports how the sweep
/// was scheduled and timed.
[[nodiscard]] std::vector<RunResult> run_scenarios(
    const Fixture& fixture, std::span<const ScenarioSpec> specs,
    const SweepOptions& options, SweepStats* stats = nullptr);

/// Same, with default options (parallel over hardware_concurrency).
[[nodiscard]] std::vector<RunResult> run_scenarios(
    const Fixture& fixture, std::span<const ScenarioSpec> specs,
    SweepStats* stats = nullptr);

/// Convenience: the spec's run compared against the "baseline" router
/// under the same energy model, workload and delay.
[[nodiscard]] SavingsReport scenario_savings(const Fixture& fixture,
                                             const ScenarioSpec& spec);

/// The hour window the spec's workload covers (the trace window, or the
/// synthetic replay window including any override). Settlement code
/// maps absolute hours to RunResult::hourly_energy rows with it.
[[nodiscard]] Period scenario_period(const Fixture& fixture,
                                     const ScenarioSpec& spec);

}  // namespace cebis::core

#endif  // CEBIS_CORE_EXPERIMENT_H
