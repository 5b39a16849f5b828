#ifndef CEBIS_CORE_SIMULATION_H
#define CEBIS_CORE_SIMULATION_H

// The discrete-time simulator (paper §6.1): steps through the workload,
// lets a routing module with a global view allocate traffic, models each
// cluster's energy with the §5.1 power model, and bills the energy at
// the observed hourly market prices.
//
// Prices refresh on the price set's native interval
// (PriceSet::samples_per_hour; hourly prices are 1): step_rows maps each
// accounting step onto the intervals it covers. Routing reads the
// interval `delay` intervals back (the paper conservatively assumes the
// system reacts to the previous hour's prices, delay_hours = 1); billing
// always uses the concurrent interval. A workload stepping coarser than
// the market is priced at the mean of the intervals its step covers
// (exact, since demand is uniform within a step). The workload and
// market cadences must nest (cadences_nest).
//
// Everything beyond the primary dollar accounting - secondary meters,
// per-hour energy recording, figure series - is layered on via the
// StepObserver pipeline (see core/step_observer.h and core/observers.h).
//
// Hot-path layout: the RoutingContext spans are bound to the engine's
// scratch vectors once per run and only the values are rewritten;
// prices refresh once per price interval and capacities once per hour,
// so routers replay their plans across the steps in between; the distance
// metrics walk only the allocation's nonzero entries, reading each
// cell's histogram bin from a table built beside the distance table;
// a step's running sums (fleet energy and cost, the distance sums,
// hit-hours) are carried in locals across its loops and stored once,
// since a store into a result or bin array may otherwise alias them;
// and the realized 95th percentiles stream through an exact top-K
// sketch instead of retaining the full per-step load history, where a
// sample at or below the sketch's minimum costs two comparisons. Each
// of these adds the same values in the same order as a plain loop, so
// every output bit is unchanged.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/cluster.h"
#include "core/routing.h"
#include "core/step_observer.h"
#include "core/workload.h"
#include "energy/energy_model.h"
#include "geo/distance_model.h"
#include "market/price_series.h"
#include "obs/taps.h"

namespace cebis::core {

struct EngineConfig {
  energy::EnergyModelParams energy;
  int delay_hours = 1;      ///< routing reacts to the price of hour t-delay
  /// When > 0, routing reacts to the price `delay_steps` *native market
  /// intervals* ago instead of `delay_hours` hours ago (billing stays
  /// concurrent either way). With a 5-minute market, 1 is the previous
  /// 5-minute settlement and 12 reproduces delay_hours = 1 exactly; the
  /// knob measures what price freshness buys over the paper's
  /// conservative one-hour staleness. 0 disables (use delay_hours).
  /// The engine reads the two folded by routing_delay_intervals.
  int delay_steps = 0;
  bool enforce_p95 = true;  ///< apply the 95/5 constraints to the router

  /// Optional per-interval capacity multiplier in [0,1] (cluster index,
  /// hour). Used by the demand-response extension to shed load at a
  /// location: the router sees the reduced capacity and reroutes.
  std::function<double(std::size_t, HourIndex)> capacity_factor;

  /// Optional per-interval effective PUE (cluster index, hour),
  /// overriding energy.pue. Used by the weather extension: free cooling
  /// lowers the PUE when the ambient temperature allows it.
  std::function<double(std::size_t, HourIndex)> pue_of;

  /// Observability taps (obs::Taps - the one struct every layer
  /// accepts). Write-only: counters, histograms and spans observe the
  /// run but never feed a decision, so RunResults are byte-identical
  /// with them enabled, disabled or absent (guarded in
  /// tests/test_obs.cpp). `taps.metrics` publishes step/run counters,
  /// the per-step energy histogram and the router's own counters
  /// (Router::counters()) labeled by router name; `taps.tracer` -
  /// strictly opt-in, it costs two clock reads per span - wraps
  /// begin/finish and every step. Both borrowed; null = uninstrumented
  /// (the default and the historical behavior).
  obs::Taps taps;
};

/// The routing delay in native market intervals - the one place the two
/// delay knobs fold together: `delay_steps` intervals when set, else
/// `delay_hours` whole hours of `samples_per_hour` intervals each.
[[nodiscard]] constexpr std::int64_t routing_delay_intervals(
    int delay_hours, int delay_steps, int samples_per_hour) noexcept {
  return delay_steps > 0 ? delay_steps
                         : std::int64_t{delay_hours} * samples_per_hour;
}

/// The window a run over `period` prices: the period plus the whole
/// hours the delayed routing price reaches back (routing_delay_intervals
/// rounded up to hours).
[[nodiscard]] constexpr Period priced_window(Period period, int delay_hours,
                                             int delay_steps,
                                             int samples_per_hour) noexcept {
  const std::int64_t delay =
      routing_delay_intervals(delay_hours, delay_steps, samples_per_hour);
  const std::int64_t margin = (delay + samples_per_hour - 1) / samples_per_hour;
  return Period{period.begin - margin, period.end};
}

/// Per-interval, per-cluster energy in one flat row-major buffer (one
/// allocation per run instead of one vector per row). Rows are metering
/// intervals relative to the recorded workload period,
/// `samples_per_hour` rows per hour (1 = one row per hour).
class HourlyEnergy {
 public:
  HourlyEnergy() = default;
  HourlyEnergy(std::size_t hours, int samples_per_hour, std::size_t clusters)
      : clusters_(clusters),
        samples_per_hour_(samples_per_hour),
        data_(hours * static_cast<std::size_t>(samples_per_hour) * clusters,
              0.0) {}

  [[nodiscard]] double at(std::size_t row, std::size_t cluster) const {
    return data_[row * clusters_ + cluster];
  }
  [[nodiscard]] double& at(std::size_t row, std::size_t cluster) {
    return data_[row * clusters_ + cluster];
  }
  /// All clusters' energy for one metering interval (row).
  [[nodiscard]] std::span<const double> row(std::size_t row) const {
    return std::span<const double>(data_).subspan(row * clusters_, clusters_);
  }

  /// Rows per hour (1 = the historical per-hour layout).
  [[nodiscard]] int samples_per_hour() const noexcept {
    return samples_per_hour_;
  }
  /// Total metering-interval rows (hours() * samples_per_hour()).
  [[nodiscard]] std::size_t rows() const noexcept {
    return clusters_ == 0 ? 0 : data_.size() / clusters_;
  }
  [[nodiscard]] std::size_t hours() const noexcept {
    return rows() / static_cast<std::size_t>(samples_per_hour_);
  }
  [[nodiscard]] std::size_t clusters() const noexcept { return clusters_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

 private:
  std::size_t clusters_ = 0;
  int samples_per_hour_ = 1;
  std::vector<double> data_;
};

/// Net-of-battery tariff accounting for a run that carried a
/// StorageSpec (see storage/storage_controller.h, which fills this in
/// at run end). "Raw" bills the load as the engine accounted it; "net"
/// bills the grid draw after the per-cluster batteries acted.
struct StorageOutcome {
  bool engaged = false;  ///< true when a StorageController observed the run

  Usd raw_energy;   ///< tariff energy charge, no battery
  Usd raw_demand;   ///< tariff demand charge, no battery
  Usd net_energy;   ///< tariff energy charge, net of battery
  Usd net_demand;   ///< tariff demand charge, net of battery

  double charged_mwh = 0.0;     ///< grid energy drawn into batteries
  double discharged_mwh = 0.0;  ///< battery energy served to load
  double loss_mwh = 0.0;        ///< round-trip conversion losses
  double final_soc_mwh = 0.0;   ///< fleet state of charge at run end

  std::vector<double> cluster_raw_usd;  ///< per-cluster raw total bill
  std::vector<double> cluster_net_usd;  ///< per-cluster net total bill

  [[nodiscard]] Usd raw_total() const noexcept { return raw_energy + raw_demand; }
  [[nodiscard]] Usd net_total() const noexcept { return net_energy + net_demand; }
};

/// Aggregated outcome of one simulation run.
struct RunResult {
  Usd total_cost;
  MegawattHours total_energy;
  std::vector<double> cluster_cost;    // USD per cluster
  std::vector<double> cluster_energy;  // MWh per cluster

  /// Traffic-weighted client-server distance statistics (Fig 17).
  double mean_distance_km = 0.0;
  double p99_distance_km = 0.0;

  /// Realized per-cluster 95th percentile hit rates (95/5 audit).
  std::vector<double> realized_p95;

  /// Total traffic served (hit-hours; invariant across routers).
  double hit_hours = 0.0;

  /// Intervals where demand exceeded every limit and a cluster was
  /// overloaded past capacity (should be zero in healthy setups).
  std::int64_t overflow_steps = 0;

  /// Per-hour, per-cluster energy; empty unless a HourlyEnergyRecorder
  /// observer was attached to the run (see core/observers.h).
  HourlyEnergy hourly_energy;

  /// Raw vs net-of-battery tariff accounting; engaged only when the
  /// scenario carried a StorageSpec (see core/scenario.h).
  StorageOutcome storage;
};

class SimulationEngine {
 public:
  /// `prices.period` must cover [workload.begin - delay, workload.end).
  /// `distances` is the states x clusters model used for the Fig 17
  /// distance metrics.
  SimulationEngine(std::vector<Cluster> clusters, const market::PriceSet& prices,
                   const geo::DistanceModel& distances, EngineConfig config);

  /// Runs the workload through the router. `observers` are invoked in
  /// order at run begin, after every step's accounting, and at run end.
  [[nodiscard]] RunResult run(const Workload& workload, Router& router,
                              std::span<StepObserver* const> observers = {}) const;

  /// An in-progress run, advanced one accounting step at a time. run()
  /// is exactly `begin` + step() to completion + finish(), so a stepped
  /// run is byte-identical to the batch loop - the seam the live
  /// service mode (src/service/) is built on: a LiveEngine holds a
  /// Session open, feeds it demand as ticks arrive, and reads rolling
  /// cost/energy between steps. Sessions borrow the engine, workload,
  /// router and observers - all must outlive the session - and a step
  /// that throws leaves the run unfinished (on_run_end is never fired),
  /// matching run()'s exception behavior.
  class Session {
   public:
    ~Session();
    Session(Session&&) noexcept;
    Session& operator=(Session&&) noexcept;

    /// Executes the next accounting step (throws std::logic_error when
    /// the run is already complete or finished).
    void step();
    [[nodiscard]] bool done() const noexcept;
    [[nodiscard]] std::int64_t steps_done() const noexcept;
    [[nodiscard]] std::int64_t steps_total() const noexcept;

    /// Primary dollar/energy accounting accumulated so far (rolling
    /// telemetry between steps; equals the final totals once done).
    [[nodiscard]] double cost_so_far() const noexcept;
    [[nodiscard]] double energy_so_far() const noexcept;

    /// Fires on_run_end and returns the result. Requires done(); call
    /// at most once (throws std::logic_error otherwise).
    [[nodiscard]] RunResult finish();

   private:
    friend class SimulationEngine;
    struct State;
    explicit Session(std::unique_ptr<State> state);
    std::unique_ptr<State> state_;
  };

  /// Opens a stepped run (validates inputs and fires on_run_begin, like
  /// the head of run()).
  [[nodiscard]] Session begin(const Workload& workload, Router& router,
                              std::span<StepObserver* const> observers = {}) const;

  [[nodiscard]] const std::vector<Cluster>& clusters() const noexcept {
    return clusters_;
  }

 private:
  std::vector<Cluster> clusters_;
  const market::PriceSet& prices_;
  const geo::DistanceModel& distances_;
  EngineConfig config_;
  // Dense copy of the model's states x clusters distances (stride =
  // cluster count), built once: run() is called many times per engine
  // in sweeps, and the per-entry metric lookup must not pay the
  // model's checked interface. distance_bin_ holds each cell's
  // distance-histogram bin, so no step divides to find one.
  std::vector<double> distance_km_;
  std::vector<std::uint32_t> distance_bin_;
};

}  // namespace cebis::core

#endif  // CEBIS_CORE_SIMULATION_H
