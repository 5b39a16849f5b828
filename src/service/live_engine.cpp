#include "service/live_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/routing.h"
#include "market/hub.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/storage_controller.h"

namespace cebis::service {

namespace {

/// Keeps each step's routing decision (per-cluster routed load) for
/// LiveEngine::last_decision and, when there is a log, writes it and
/// the batteries' state-of-charge deltas there. Always attached, and
/// last, after the StorageController, so the deltas reflect this step's
/// charge/discharge.
class EventLogObserver final : public core::StepObserver {
 public:
  EventLogObserver(EventLogWriter* log,
                   const storage::StorageController* controller)
      : log_(log), controller_(controller) {}

  void on_run_begin(const core::RunInfo& /*info*/,
                    std::span<const core::Cluster> /*clusters*/) override {
    if (controller_ != nullptr) {
      prev_soc_.clear();
      for (const storage::Battery& b : controller_->batteries()) {
        prev_soc_.push_back(b.soc().value());
      }
    }
  }

  void on_step(const core::StepView& view) override {
    decision_.step = view.step;
    const std::span<const double> totals = view.allocation.cluster_totals();
    decision_.cluster_load.assign(totals.begin(), totals.end());
    if (log_ == nullptr) return;
    log_->write(decision_);

    if (controller_ != nullptr) {
      action_.step = view.step;
      const std::vector<storage::Battery>& batteries = controller_->batteries();
      action_.soc_delta_mwh.resize(batteries.size());
      for (std::size_t c = 0; c < batteries.size(); ++c) {
        const double soc = batteries[c].soc().value();
        action_.soc_delta_mwh[c] = soc - prev_soc_[c];
        prev_soc_[c] = soc;
      }
      log_->write(action_);
    }
  }

  [[nodiscard]] const RoutingDecisionRecord& decision() const noexcept {
    return decision_;
  }

 private:
  EventLogWriter* log_;
  const storage::StorageController* controller_;
  std::vector<double> prev_soc_;
  // Reused every step, so recording a step allocates nothing.
  RoutingDecisionRecord decision_;
  StorageActionRecord action_;
};

}  // namespace

// --- PushWorkload -----------------------------------------------------------

void check_demand_step(std::span<const double> demand, std::size_t state_count,
                       std::int64_t step) {
  if (demand.size() != state_count) {
    throw std::invalid_argument("demand step " + std::to_string(step) +
                                ": size " + std::to_string(demand.size()) +
                                " != " + std::to_string(state_count) +
                                " states");
  }
  for (std::size_t s = 0; s < state_count; ++s) {
    if (!std::isfinite(demand[s])) {
      throw std::invalid_argument("demand step " + std::to_string(step) +
                                  " state " + std::to_string(s) +
                                  " is not finite");
    }
  }
}

PushWorkload::PushWorkload(Period period, int steps_per_hour,
                           std::size_t state_count)
    : period_(period),
      steps_per_hour_(steps_per_hour),
      state_count_(state_count) {
  if (period_.hours() <= 0) {
    throw std::invalid_argument("PushWorkload: empty period");
  }
  if (steps_per_hour_ < 1) {
    throw std::invalid_argument("PushWorkload: steps_per_hour < 1");
  }
  if (state_count_ == 0) {
    throw std::invalid_argument("PushWorkload: no states");
  }
  data_.reserve(static_cast<std::size_t>(steps()) * state_count_);
}

void PushWorkload::push(std::span<const double> demand) {
  check_demand_step(demand, state_count_, pushed());
  if (pushed() >= steps()) {
    throw std::invalid_argument("PushWorkload::push: workload already full");
  }
  data_.insert(data_.end(), demand.begin(), demand.end());
}

void PushWorkload::demand(std::int64_t step, std::span<double> out) const {
  if (step < 0 || step >= pushed()) {
    throw std::out_of_range("PushWorkload::demand: step " +
                            std::to_string(step) +
                            " beyond the pushed prefix (" +
                            std::to_string(pushed()) + " steps)");
  }
  const auto row = static_cast<std::size_t>(step) * state_count_;
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(row), state_count_,
              out.begin());
}

// --- LiveEngine -------------------------------------------------------------

struct LiveEngine::Impl {
  market::TickAssembler assembler;
  PushWorkload workload;
  core::SimulationEngine engine;
  std::unique_ptr<core::Router> router;

  // Observers, attachment order: recorder and storage controller when
  // configured, then the log observer, always (last, so it sees
  // post-controller battery state).
  std::unique_ptr<core::HourlyEnergyRecorder> recorder;
  std::unique_ptr<storage::StorageController> controller;
  std::unique_ptr<EventLogObserver> log_observer;
  std::vector<core::StepObserver*> observers;

  // Shadow baseline for rolling savings telemetry: same prices and
  // workload, the "baseline" scheme on the fixture clusters.
  std::unique_ptr<core::SimulationEngine> shadow_engine;
  std::unique_ptr<core::Router> shadow_router;

  // Live-mode observability handles (inert when LiveConfig::taps.metrics
  // is null). Per-hub gap gauges are parallel to assembler.tracked().
  obs::Counter m_ticks;
  obs::Counter m_blocked;
  obs::Gauge g_seal_headroom;
  std::vector<obs::Gauge> g_hub_gap;
  obs::Tracer* tracer = nullptr;

  EventLogWriter* log = nullptr;
  WorkloadStepRecord step_record;  // reused by every logged advance()
  LiveTelemetry telemetry;
  double prev_cost = 0.0;
  double prev_shadow_cost = 0.0;

  // Sessions last: they borrow everything above and must die first.
  std::optional<core::SimulationEngine::Session> session;
  std::optional<core::SimulationEngine::Session> shadow_session;

  Impl(market::TickAssembler assembler_in, PushWorkload workload_in,
       std::vector<core::Cluster> clusters, const core::Fixture& fixture,
       const core::EngineConfig& cfg)
      : assembler(std::move(assembler_in)),
        workload(std::move(workload_in)),
        engine(std::move(clusters), assembler.set(), fixture.distances, cfg) {}

  [[nodiscard]] std::int64_t needed_end_for(std::int64_t step) const {
    // One past the last native interval the step touches (exact for a
    // finer market, the concurrent interval for a coarser one).
    const int sph = assembler.samples_per_hour();
    const StepRows rows = step_rows(step, workload.steps_per_hour(), sph);
    return workload.period().begin * sph + rows.first + rows.count;
  }
};

LiveEngine::LiveEngine(const core::Fixture& fixture, const LiveConfig& config,
                       EventLogWriter* log) {
  if (config.period.hours() <= 0) {
    throw std::invalid_argument("LiveEngine: empty period");
  }
  const core::ScenarioSpec spec = scenario_of(config);
  core::RunPlan plan =
      core::plan_run(fixture, spec, config.period, config.taps);

  std::vector<HubId> tracked;
  tracked.reserve(plan.clusters.size());
  for (const core::Cluster& c : plan.clusters) tracked.push_back(c.hub);

  impl_ = std::make_unique<Impl>(
      market::TickAssembler(plan.priced, config.samples_per_hour,
                            market::HubRegistry::instance().size(),
                            std::move(tracked)),
      PushWorkload(config.period, config.steps_per_hour,
                   fixture.trace.state_count()),
      std::move(plan.clusters), fixture, plan.engine);
  Impl& im = *impl_;
  im.log = log;
  im.router = std::move(plan.router);
  im.controller = std::move(plan.storage);
  im.tracer = config.taps.tracer;
  if (config.taps.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config.taps.metrics;
    im.m_ticks = reg.counter("cebis_live_price_ticks_total",
                             "Settlement ticks ingested by the live session");
    im.m_blocked = reg.counter(
        "cebis_live_blocked_advances_total",
        "advance() calls rejected because the tick stream had not sealed "
        "the step's price intervals yet");
    im.g_seal_headroom = reg.gauge(
        "cebis_live_seal_headroom_intervals",
        "Sealed intervals beyond what the last advance() needed (how far "
        "the tick stream runs ahead of the simulation)");
    const market::HubRegistry& hubs = market::HubRegistry::instance();
    for (const HubId hub : im.assembler.tracked()) {
      im.g_hub_gap.push_back(reg.gauge(
          "cebis_live_hub_gap_intervals",
          "Intervals this hub's tick stream trails the furthest-ahead "
          "tracked hub (the largest gap is the hub stalling the seal)",
          {{"hub", std::string(hubs.info(hub).code)}}));
    }
  }

  if (config.record_hourly_energy) {
    im.recorder =
        std::make_unique<core::HourlyEnergyRecorder>(/*native_intervals=*/true);
    im.observers.push_back(im.recorder.get());
  }
  if (im.controller) im.observers.push_back(im.controller.get());
  im.log_observer =
      std::make_unique<EventLogObserver>(log, im.controller.get());
  im.observers.push_back(im.log_observer.get());

  static_cast<SessionSpec&>(meta_) = config;
  meta_.seed = fixture.seed;
  meta_.n_states = static_cast<std::uint32_t>(im.workload.state_count());
  meta_.n_clusters = static_cast<std::uint32_t>(im.engine.clusters().size());

  // The meta frame leads the log (and doubles as eager validation that
  // the session is loggable - the writer rejects non-round-trippable
  // storage specs before any simulation state exists).
  if (log != nullptr) log->write(meta_);

  im.session.emplace(im.engine.begin(im.workload, *im.router, im.observers));

  if (config.shadow_baseline) {
    // The baseline defines the reference, so its plan runs unconstrained
    // on the fixture clusters, with no battery.
    core::ScenarioSpec baseline = spec;
    baseline.router = "baseline";
    baseline.config = std::monostate{};
    baseline.storage.reset();
    core::RunPlan shadow =
        core::plan_run(fixture, baseline, config.period, config.taps);
    im.shadow_engine = std::make_unique<core::SimulationEngine>(
        std::move(shadow.clusters), im.assembler.set(), fixture.distances,
        shadow.engine);
    im.shadow_router = std::move(shadow.router);
    im.shadow_session.emplace(
        im.shadow_engine->begin(im.workload, *im.shadow_router, {}));
  }
}

LiveEngine::~LiveEngine() = default;

void LiveEngine::on_price_tick(HubId hub, std::int64_t interval, double price) {
  Impl& im = *impl_;
  const obs::Tracer::Span span = obs::maybe_span(im.tracer, "live/tick", "live");
  im.assembler.add(hub, interval, price);
  im.m_ticks.add();
  if (im.log != nullptr) {
    im.log->write(PriceTickRecord{hub, interval, price});
  }
}

void LiveEngine::advance(std::span<const double> demand) {
  Impl& im = *impl_;
  if (im.session->done()) {
    throw std::logic_error("LiveEngine::advance: run already complete");
  }
  const std::int64_t k = im.session->steps_done();
  const std::int64_t need = im.needed_end_for(k);
  const std::int64_t sealed = im.assembler.sealed_end();
  if (sealed < need) {
    im.m_blocked.add();
    throw std::logic_error(
        "LiveEngine::advance: step " + std::to_string(k) +
        " needs prices sealed through interval " + std::to_string(need) +
        ", tick stream has sealed " + std::to_string(sealed));
  }
  const obs::Tracer::Span span =
      obs::maybe_span(im.tracer, "live/advance", "live");
  im.workload.push(demand);
  if (im.log != nullptr) {
    im.step_record.step = k;
    im.step_record.demand.assign(demand.begin(), demand.end());
    im.log->write(im.step_record);
  }
  im.session->step();
  const double cost = im.session->cost_so_far();
  const double bill_step = cost - im.prev_cost;
  im.telemetry.bill_usd_per_step.add(bill_step);
  im.prev_cost = cost;

  if (im.shadow_session) {
    im.shadow_session->step();
    const double shadow_cost = im.shadow_session->cost_so_far();
    im.telemetry.savings_usd_per_step.add((shadow_cost - im.prev_shadow_cost) -
                                          bill_step);
    im.prev_shadow_cost = shadow_cost;
  }

  if (im.g_seal_headroom.live()) {
    im.g_seal_headroom.set(static_cast<double>(sealed - need));
    const std::span<const std::int64_t> next = im.assembler.next_intervals();
    std::int64_t lead = 0;
    for (const std::int64_t n : next) lead = std::max(lead, n);
    for (std::size_t i = 0; i < im.g_hub_gap.size(); ++i) {
      im.g_hub_gap[i].set(static_cast<double>(lead - next[i]));
    }
  }
}

core::RunResult LiveEngine::finish() {
  // The shadow session is telemetry only - it is abandoned unfinished
  // (no observers, nothing to fold).
  return impl_->session->finish();
}

bool LiveEngine::done() const noexcept { return impl_->session->done(); }

std::int64_t LiveEngine::steps_done() const noexcept {
  return impl_->session->steps_done();
}

std::int64_t LiveEngine::steps_total() const noexcept {
  return impl_->session->steps_total();
}

double LiveEngine::cost_so_far() const noexcept {
  return impl_->session->cost_so_far();
}

double LiveEngine::energy_so_far() const noexcept {
  return impl_->session->energy_so_far();
}

std::int64_t LiveEngine::sealed_end() const noexcept {
  return impl_->assembler.sealed_end();
}

std::int64_t LiveEngine::needed_end() const noexcept {
  const std::int64_t k =
      std::min(impl_->session->steps_done(), impl_->session->steps_total() - 1);
  return impl_->needed_end_for(k);
}

const RoutingDecisionRecord& LiveEngine::last_decision() const noexcept {
  return impl_->log_observer->decision();
}

std::span<const HubId> LiveEngine::tracked_hubs() const noexcept {
  return impl_->assembler.tracked();
}

std::span<const std::int64_t> LiveEngine::next_tick_intervals() const noexcept {
  return impl_->assembler.next_intervals();
}

std::size_t LiveEngine::state_count() const noexcept {
  return impl_->workload.state_count();
}

std::size_t LiveEngine::cluster_count() const noexcept {
  return impl_->engine.clusters().size();
}

const LiveTelemetry& LiveEngine::telemetry() const noexcept {
  return impl_->telemetry;
}

std::int64_t LiveEngine::plan_rebuilds() const {
  for (const core::RouterCounter& counter : impl_->router->counters()) {
    if (counter.name == "plan_rebuilds") return counter.value;
  }
  return 0;
}

}  // namespace cebis::service
