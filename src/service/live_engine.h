#ifndef CEBIS_SERVICE_LIVE_ENGINE_H
#define CEBIS_SERVICE_LIVE_ENGINE_H

// Tick-driven live service mode over the batch simulator.
//
// The batch path consumes a finished PriceSet and a whole Workload; a
// service consumes a stream: settlement ticks arrive per (hub,
// interval) and demand arrives one accounting step at a time. The
// LiveEngine wraps the exact batch machinery behind that streaming
// surface:
//
//   on_price_tick()  feeds a market::TickAssembler that writes each
//                    settlement into the PriceSet the engine reads
//   advance()        pushes one step of demand and advances an open
//                    SimulationEngine::Session by one step - after
//                    checking the step's price intervals are sealed, so
//                    the engine never reads an unpriced placeholder
//   finish()         closes the session and returns the RunResult
//
// Because the Session IS the batch loop (run() = begin + step* +
// finish), a live run is byte-identical to the batch run over the same
// inputs. Every input is optionally recorded to an EventLog
// (service/event_log.h) as it arrives, and service/replay.h re-runs a
// recorded log by re-feeding it to a fresh LiveEngine - so a replay is
// built exactly as the session was. Replay-equals-live is the headline
// contract, pinned in tests/test_replay_equals_live.cpp.
//
// Between steps the engine exposes rolling telemetry: bill rate and
// savings-vs-baseline (per-step dollars through RollingEstimators).
// Savings come from a shadow baseline session stepped in lockstep on a
// second engine - the same fixture, prices and workload, routed by the
// "baseline" scheme. The router's plan-rebuild counter is read only
// when asked (plan_rebuilds()), so a step allocates nothing for it.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/experiment.h"
#include "core/observers.h"
#include "core/simulation.h"
#include "market/tick_assembler.h"
#include "service/event_log.h"
#include "service/rolling_estimators.h"

namespace cebis::service {

/// Throws std::invalid_argument unless `demand` is one accounting step
/// of demand for `state_count` states: exactly that many entries, each
/// finite. `step` names the step in the message. PushWorkload::push runs
/// it, and so does the net server when a step arrives, before buffering.
void check_demand_step(std::span<const double> demand, std::size_t state_count,
                       std::int64_t step);

/// A Workload fed one step at a time: the live loop push()es demand as
/// it arrives (replay too, since it re-feeds a LiveEngine).
/// demand() serves only pushed steps (throws std::out_of_range beyond
/// the pushed prefix - the engine never reads ahead of the stream).
class PushWorkload final : public core::Workload {
 public:
  PushWorkload(Period period, int steps_per_hour, std::size_t state_count);

  /// Appends the next step's per-state demand (throws
  /// std::invalid_argument where check_demand_step does, or when the
  /// workload is already fully fed).
  void push(std::span<const double> demand);

  [[nodiscard]] std::int64_t pushed() const noexcept {
    return static_cast<std::int64_t>(data_.size() / state_count_);
  }

  [[nodiscard]] Period period() const override { return period_; }
  [[nodiscard]] int steps_per_hour() const override { return steps_per_hour_; }
  [[nodiscard]] std::size_t state_count() const override { return state_count_; }
  void demand(std::int64_t step, std::span<double> out) const override;

 private:
  Period period_;
  int steps_per_hour_;
  std::size_t state_count_;
  std::vector<double> data_;  // pushed() x state_count, row-major
};

/// Configuration of one live session: the run description it logs (see
/// SessionSpec) plus the runtime knobs no log carries.
struct LiveConfig : SessionSpec {
  /// Step a shadow "baseline" session in lockstep and report rolling
  /// savings telemetry.
  bool shadow_baseline = true;

  /// Observability taps (obs::Taps; both pointers borrowed, may be
  /// null). Threaded into the underlying engine (see
  /// EngineConfig::taps) and extended with live-mode series: tick
  /// counts, the tick stream's seal lag against what the next step
  /// needs, per-hub gap stalls, and blocked advances. Write-only - the
  /// simulation never reads them back, so a live run stays
  /// byte-identical to its replay with or without them.
  obs::Taps taps;
};

/// Rolling per-step dollar telemetry (see RollingEstimators; all
/// estimators sample once per advance(), EWMA weight 0.1).
struct LiveTelemetry {
  RollingEstimators bill_usd_per_step;
  /// Present only with LiveConfig::shadow_baseline.
  RollingEstimators savings_usd_per_step;
};

class LiveEngine {
 public:
  /// Builds clusters, router, engine and storage controller through
  /// core::plan_run, as the scenario runner does, opens the session,
  /// and - when `log` is given - writes the SessionMeta frame. `log`
  /// and `fixture` must outlive the LiveEngine. Throws
  /// std::invalid_argument on a config the service mode cannot honour.
  LiveEngine(const core::Fixture& fixture, const LiveConfig& config,
             EventLogWriter* log = nullptr);
  ~LiveEngine();

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// Ingests one settlement tick (absolute native interval =
  /// hour * samples_per_hour + sub). Ticks must arrive gapless per hub
  /// (market::TickAssembler's discipline); recorded to the log.
  void on_price_tick(HubId hub, std::int64_t interval, double price);

  /// Advances the simulation one accounting step on `demand` (per-state,
  /// size = state_count()). Throws std::logic_error when the run is
  /// complete or when the step's price intervals are not yet sealed by
  /// the tick stream.
  void advance(std::span<const double> demand);

  /// Fires run-end accounting and returns the result (call once, after
  /// the last step).
  [[nodiscard]] core::RunResult finish();

  // --- streaming state --------------------------------------------------
  [[nodiscard]] bool done() const noexcept;
  [[nodiscard]] std::int64_t steps_done() const noexcept;
  [[nodiscard]] std::int64_t steps_total() const noexcept;
  [[nodiscard]] double cost_so_far() const noexcept;
  [[nodiscard]] double energy_so_far() const noexcept;
  /// One-past-the-last absolute interval priced by every tracked hub.
  [[nodiscard]] std::int64_t sealed_end() const noexcept;
  /// One-past-the-last absolute interval the NEXT step needs sealed.
  [[nodiscard]] std::int64_t needed_end() const noexcept;
  /// The routing decision of the most recent advance() (empty loads
  /// before the first): the record the log carries for the step, and
  /// the one the network subscriber stream publishes.
  [[nodiscard]] const RoutingDecisionRecord& last_decision() const noexcept;
  /// The tick stream's tracked hubs and, parallel to them, the next
  /// absolute interval each hub must settle (the resume cursor a
  /// reconnecting feeder picks up from; see market::TickAssembler).
  [[nodiscard]] std::span<const HubId> tracked_hubs() const noexcept;
  [[nodiscard]] std::span<const std::int64_t> next_tick_intervals()
      const noexcept;
  [[nodiscard]] std::size_t state_count() const noexcept;
  [[nodiscard]] std::size_t cluster_count() const noexcept;
  [[nodiscard]] const LiveTelemetry& telemetry() const noexcept;
  /// The live router's "plan_rebuilds" counter, read generically from
  /// Router::counters() on each call - any scheme that publishes one is
  /// covered (0 for routers without a plan to rebuild). The read
  /// allocates, so advance() never makes it.
  [[nodiscard]] std::int64_t plan_rebuilds() const;
  /// The session's description, as a log of it carries.
  [[nodiscard]] const SessionMeta& meta() const noexcept { return meta_; }

 private:
  struct Impl;
  SessionMeta meta_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cebis::service

#endif  // CEBIS_SERVICE_LIVE_ENGINE_H
