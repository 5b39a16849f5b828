#include "core/simulation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "billing/percentile_billing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/percentile.h"

namespace cebis::core {

namespace {

/// Traffic-weighted distance statistics via a fixed-width histogram
/// (5 km bins to 6000 km): exact mean, percentile to bin resolution.
class DistanceStats {
 public:
  static constexpr std::size_t kBins = 1200;

  /// The bin a distance falls in; the last bin takes everything past it.
  [[nodiscard]] static std::uint32_t bin_of(double km) {
    return static_cast<std::uint32_t>(
        std::min(kBins - 1, static_cast<std::size_t>(std::max(0.0, km) / 5.0)));
  }

  DistanceStats() : bins_(kBins, 0.0) {}

  /// Adds one step's nonzero cells, each weighted by its hits times
  /// `dt_hours`. `km` and `bin` are the states x clusters distance and
  /// bin tables (row stride `clusters`). The sums stay in locals for the
  /// whole step: as members they would be reloaded after every store to
  /// a bin, which the compiler must assume may alias them.
  void add_step(const Allocation& alloc, const double* km,
                const std::uint32_t* bin, std::size_t clusters,
                double dt_hours) {
    double sum = sum_;
    double total = total_;
    double* const bins = bins_.data();
    for (const Allocation::Entry& e : alloc.nonzero()) {
      const std::size_t cell = e.state * clusters + e.cluster;
      const double weight = alloc.hits(e) * dt_hours;
      sum += km[cell] * weight;
      total += weight;
      bins[bin[cell]] += weight;
    }
    sum_ = sum;
    total_ = total;
  }

  [[nodiscard]] double mean() const { return total_ > 0.0 ? sum_ / total_ : 0.0; }

  [[nodiscard]] double percentile(double p) const {
    if (total_ <= 0.0) return 0.0;
    const double target = p / 100.0 * total_;
    double cum = 0.0;
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      cum += bins_[b];
      if (cum >= target) return (static_cast<double>(b) + 0.5) * 5.0;
    }
    return 6000.0;
  }

 private:
  std::vector<double> bins_;
  double sum_ = 0.0;
  double total_ = 0.0;
};

/// Floored division (hour of a possibly negative absolute interval).
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  return a / b - ((a % b != 0) && ((a % b < 0) != (b < 0)) ? 1 : 0);
}

}  // namespace

SimulationEngine::SimulationEngine(std::vector<Cluster> clusters,
                                   const market::PriceSet& prices,
                                   const geo::DistanceModel& distances,
                                   EngineConfig config)
    : clusters_(std::move(clusters)),
      prices_(prices),
      distances_(distances),
      config_(std::move(config)) {
  if (clusters_.empty()) throw std::invalid_argument("SimulationEngine: no clusters");
  if (config_.delay_hours < 0) {
    throw std::invalid_argument("SimulationEngine: negative delay");
  }
  if (config_.delay_steps < 0) {
    throw std::invalid_argument("SimulationEngine: negative delay_steps");
  }
  if (distances_.site_count() < clusters_.size()) {
    throw std::invalid_argument("SimulationEngine: distance model too small");
  }
  distance_km_.resize(distances_.state_count() * clusters_.size());
  distance_bin_.resize(distance_km_.size());
  for (std::size_t s = 0; s < distances_.state_count(); ++s) {
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      const double km =
          distances_.distance(StateId{static_cast<std::int32_t>(s)}, c).value();
      distance_km_[s * clusters_.size() + c] = km;
      distance_bin_[s * clusters_.size() + c] = DistanceStats::bin_of(km);
    }
  }
}

/// The whole per-run state of one stepped (or batch) run: every local
/// the historical run() loop kept on its stack, plus the step cursor.
/// run() drains a Session, so the batch and stepped paths execute the
/// same code and stay byte-identical by construction.
struct SimulationEngine::Session::State {
  const SimulationEngine* engine;
  const Workload* workload;
  Router* router;
  std::vector<StepObserver*> observers;

  Period period;
  std::size_t n_clusters;
  std::size_t n_states;
  int sph;
  Hours dt;
  int psph;
  std::int64_t delay;  ///< routing delay in native market intervals
  energy::ClusterEnergyModel model;

  // Routing context buffers, bound once: the spans in `ctx` alias these
  // vectors for the whole run (they never reallocate), so each step only
  // rewrites the values, not the context.
  std::vector<double> demand;
  std::vector<double> price;
  std::vector<double> bill_price;
  std::vector<double> capacity;
  std::vector<double> cap_factor;
  std::vector<double> step_energy;
  std::vector<double> step_cost;
  // Per-cluster constants hoisted out of the step loop so the
  // accounting passes below are straight-line array arithmetic.
  std::vector<double> cap_value;
  std::vector<double> servers_of;
  std::vector<double> p95_limit;
  std::vector<std::uint8_t> can_burst;
  billing::FleetBurstBudgets budgets;
  RoutingContext ctx;

  // Per-hour energy models when a pue_of hook is active (rebuilt when
  // the hour advances instead of every 5-minute step).
  std::vector<energy::ClusterEnergyModel> hour_models;

  Allocation alloc;
  RunResult result;
  DistanceStats dist_stats;
  // Realized 95th percentiles stream through an exact top-K sketch
  // instead of retaining every interval's load (stats::StreamingPercentile
  // reproduces stats::p95 bit-for-bit).
  std::vector<stats::StreamingPercentile> load_p95;

  HourIndex cached_hour;
  std::int64_t cached_interval;  ///< first absolute price interval priced
  std::int64_t step = 0;
  std::int64_t steps_total;
  bool finished = false;

  // Observability taps (inert unless EngineConfig::taps.metrics is set).
  // Handles are resolved in begin() on the thread that will run the
  // session, binding them to that thread's registry shard; the
  // per-step cost is a null-check branch when uninstrumented and a few
  // relaxed stores when instrumented - no clock reads (spans, which do
  // read the clock, additionally require EngineConfig::tracer).
  obs::Counter m_steps;
  obs::Counter m_overflows;
  obs::Counter m_runs;
  obs::Histogram m_step_energy;
  /// Router counters at begin(): finish() publishes the run's delta, so
  /// a router reused across runs is not double-counted.
  std::vector<RouterCounter> router_counters_begin;

  State(const SimulationEngine& eng, const Workload& wl, Router& r,
        std::span<StepObserver* const> obs)
      : engine(&eng),
        workload(&wl),
        router(&r),
        observers(obs.begin(), obs.end()),
        period(wl.period()),
        n_clusters(eng.clusters_.size()),
        n_states(wl.state_count()),
        sph(wl.steps_per_hour()),
        dt{1.0 / sph},
        psph(eng.prices_.samples_per_hour),
        delay(routing_delay_intervals(eng.config_.delay_hours,
                                      eng.config_.delay_steps, psph)),
        model(eng.config_.energy),
        demand(n_states, 0.0),
        price(n_clusters, 0.0),
        bill_price(n_clusters, 0.0),
        capacity(n_clusters, 0.0),
        cap_factor(n_clusters, 1.0),
        step_energy(n_clusters, 0.0),
        step_cost(n_clusters, 0.0),
        cap_value(n_clusters, 0.0),
        servers_of(n_clusters, 0.0),
        budgets(std::vector<double>(n_clusters, 0.0)),
        alloc(n_states, n_clusters),
        cached_hour(period.begin - 1),
        cached_interval(period.begin * psph - 1),
        steps_total(wl.steps()) {}

  void step_once();
  [[nodiscard]] RunResult finish();
};

SimulationEngine::Session SimulationEngine::begin(
    const Workload& workload, Router& router,
    std::span<StepObserver* const> observers) const {
  const obs::Tracer::Span trace_begin =
      obs::maybe_span(config_.taps.tracer, "engine/begin", "engine");
  const int psph = prices_.samples_per_hour;
  const Period priced = priced_window(workload.period(), config_.delay_hours,
                                      config_.delay_steps, psph);
  // The guard must check the WHOLE priced window: a price set covering
  // the start but ending early used to pass here and then blow up in
  // PriceSeries::at mid-run - after on_run_begin had fired and with
  // on_run_end never called, leaving stateful observers (e.g. the
  // StorageController's month anchoring) half-open. Validate both ends
  // before any observer is touched.
  if (priced.hours() > 0 && (!prices_.period.contains(priced.begin) ||
                             !prices_.period.contains(priced.end - 1))) {
    throw std::invalid_argument(
        "SimulationEngine::run: price set covers hours [" +
        std::to_string(prices_.period.begin) + ", " +
        std::to_string(prices_.period.end) +
        ") but the workload (incl. delay) needs [" +
        std::to_string(priced.begin) + ", " + std::to_string(priced.end) + ")");
  }
  for (const Cluster& c : clusters_) {
    const market::PriceSeries& rt = prices_.rt.at(c.hub.index());
    if (rt.empty()) {
      throw std::invalid_argument(
          "SimulationEngine::run: no real-time prices for hub of cluster '" +
          std::string(c.label) + "'");
    }
    // Steps read native samples, so a series sampled at another rate
    // than the set declares would misprice (or throw mid-run).
    if (rt.samples_per_hour() != psph) {
      throw std::invalid_argument(
          "SimulationEngine::run: real-time prices for hub of cluster '" +
          std::string(c.label) + "' carry " +
          std::to_string(rt.samples_per_hour()) +
          " samples per hour, the price set declares " + std::to_string(psph));
    }
  }
  if (workload.state_count() > distances_.state_count()) {
    throw std::invalid_argument(
        "SimulationEngine::run: workload has more states than the distance model");
  }
  if (!cadences_nest(workload.steps_per_hour(), psph)) {
    throw std::invalid_argument(
        "SimulationEngine::run: workload steps and the price set's native "
        "interval must nest (one samples-per-hour must divide the other)");
  }

  auto state = std::make_unique<Session::State>(*this, workload, router, observers);
  Session::State& s = *state;
  for (std::size_t c = 0; c < s.n_clusters; ++c) {
    s.capacity[c] = clusters_[c].capacity.value();
    s.cap_value[c] = clusters_[c].capacity.value();
    s.servers_of[c] = static_cast<double>(clusters_[c].servers);
  }
  if (config_.enforce_p95) {
    s.p95_limit.resize(s.n_clusters);
    s.can_burst.assign(s.n_clusters, 1);
    for (std::size_t c = 0; c < s.n_clusters; ++c) {
      s.p95_limit[c] = clusters_[c].p95_reference.value();
    }
    s.budgets = billing::FleetBurstBudgets(s.p95_limit);
  }

  s.ctx.demand = s.demand;
  s.ctx.price = s.price;
  s.ctx.capacity = s.capacity;
  if (config_.enforce_p95) {
    s.ctx.p95_limit = s.p95_limit;
    s.ctx.can_burst = s.can_burst;
  }

  if (config_.pue_of) s.hour_models.reserve(s.n_clusters);

  s.result.cluster_cost.assign(s.n_clusters, 0.0);
  s.result.cluster_energy.assign(s.n_clusters, 0.0);
  s.load_p95.reserve(s.n_clusters);
  for (std::size_t c = 0; c < s.n_clusters; ++c) {
    s.load_p95.emplace_back(workload.steps(), 95.0);
  }

  if (config_.taps.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *config_.taps.metrics;
    const obs::Labels labels{{"router", std::string(router.name())}};
    s.m_steps = metrics.counter("cebis_engine_steps_total",
                                "Accounting steps executed", labels);
    s.m_overflows = metrics.counter(
        "cebis_engine_overflow_steps_total",
        "Steps where a cluster was loaded past capacity", labels);
    s.m_runs = metrics.counter("cebis_engine_runs_total",
                               "Simulation runs finished", labels);
    // Bins sized for the 5-minute trace fleet (a step is a few MWh);
    // coarser workloads overflow into the +Inf bucket, which is fine -
    // the histogram is a shape, not an exact meter (total_energy is).
    s.m_step_energy = metrics.histogram(
        "cebis_engine_step_energy_mwh",
        "Fleet grid energy per accounting step (MWh)",
        obs::MetricsRegistry::linear_bounds(0.0, 10.0, 0.5), labels);
    s.router_counters_begin = router.counters();
  }

  const RunInfo run_info{s.period, s.sph, s.psph};
  for (StepObserver* obs : s.observers) {
    obs->on_run_begin(run_info, clusters_);
  }
  return Session(std::move(state));
}

void SimulationEngine::Session::State::step_once() {
  const SimulationEngine& eng = *engine;
  const EngineConfig& config = eng.config_;
  const obs::Tracer::Span trace_step =
      obs::maybe_span(config.taps.tracer, "engine/step", "engine");
  const market::PriceSet& prices = eng.prices_;
  const std::vector<Cluster>& clusters = eng.clusters_;

  const HourIndex hour = period.begin + step / sph;

  if (hour != cached_hour) {
    cached_hour = hour;
    for (std::size_t c = 0; c < n_clusters; ++c) {
      double factor = 1.0;
      if (config.capacity_factor) {
        factor = std::clamp(config.capacity_factor(c, hour), 0.0, 1.0);
      }
      // A factor below 1 models suspended servers (demand response):
      // both the serving capacity and the powered server count shrink.
      cap_factor[c] = factor;
      capacity[c] = clusters[c].capacity.value() * factor;
    }
    if (config.pue_of) {
      // The hook swaps in the hour's effective PUE (weather-dependent
      // free cooling); one model per cluster covers all its steps.
      hour_models.clear();
      for (std::size_t c = 0; c < n_clusters; ++c) {
        energy::EnergyModelParams p = config.energy;
        p.pue = std::max(1.0, config.pue_of(c, hour));
        hour_models.emplace_back(p);
      }
    }
  }
  // Prices refresh on the market's native interval (hourly: once an
  // hour). Routing reads the settlement `delay` intervals back, billing
  // the concurrent one; a step coarser than the market is priced at the
  // mean of its intervals (exact: demand is uniform within a step). Sums
  // start from the first interval, so one interval reads bit for bit.
  const StepRows rows = step_rows(step, sph, psph);
  const std::int64_t first = period.begin * psph + rows.first;
  if (first != cached_interval) {
    cached_interval = first;
    const auto price_at = [&](std::size_t c, std::int64_t interval) {
      const HourIndex h = floor_div(interval, psph);
      const auto sample = static_cast<int>(interval - h * psph);
      return prices.rt_at(clusters[c].hub, h, sample).value();
    };
    for (std::size_t c = 0; c < n_clusters; ++c) {
      double route_sum = price_at(c, first - delay);
      double bill_sum = price_at(c, first);
      for (std::int64_t i = 1; i < rows.count; ++i) {
        route_sum += price_at(c, first + i - delay);
        bill_sum += price_at(c, first + i);
      }
      price[c] = route_sum / static_cast<double>(rows.count);
      bill_price[c] = bill_sum / static_cast<double>(rows.count);
    }
  }
  if (config.enforce_p95) {
    for (std::size_t c = 0; c < n_clusters; ++c) {
      can_burst[c] = budgets.at(c).can_burst() ? 1 : 0;
    }
  }

  workload->demand(step, demand);
  router->route(ctx, alloc);

  // --- accounting ----------------------------------------------------
  //
  // Three passes over the cluster axis instead of one branchy loop:
  // (1) stream the realized loads into the p95 sketches, (2) compute
  // each cluster's step energy/cost branch-free into scratch arrays
  // (dead clusters - zero capacity or a zero capacity factor -
  // contribute exact +0.0, which is what the old skip produced), and
  // (3) fold the scratch arrays into the result accumulators in the
  // same fixed cluster order as before. Only the energy-model call
  // (u^1.4) resists vectorization; everything around it is
  // straight-line array arithmetic. All three passes are bit-exact
  // with the historical single loop.
  const std::span<const double> loads = alloc.cluster_totals();
  for (std::size_t c = 0; c < n_clusters; ++c) {
    load_p95[c].add(loads[c]);
  }
  bool overflowed = false;
  for (std::size_t c = 0; c < n_clusters; ++c) {
    const double load = loads[c];
    const double active_servers = servers_of[c] * cap_factor[c];
    const bool dead = active_servers <= 0.0 || cap_value[c] <= 0.0;
    overflowed |= dead && load > 0.0;
    const double u = dead ? 0.0 : load / (cap_value[c] * cap_factor[c]);
    overflowed |= u > 1.0 + 1e-9;
    // The model is linear in n; scale the one-server energy by the
    // (possibly fractional) active server count.
    const double per_server_mwh =
        config.pue_of ? hour_models[c].energy(u, 1, dt).value()
                      : model.energy(u, 1, dt).value();
    const double e = dead ? 0.0 : per_server_mwh * active_servers;
    step_energy[c] = e;
    step_cost[c] = (UsdPerMwh{bill_price[c]} * MegawattHours{e}).value();
  }
  double total_energy = result.total_energy.value();
  double total_cost = result.total_cost.value();
  for (std::size_t c = 0; c < n_clusters; ++c) {
    result.cluster_energy[c] += step_energy[c];
    result.cluster_cost[c] += step_cost[c];
    total_energy += step_energy[c];
    total_cost += step_cost[c];
  }
  result.total_energy = MegawattHours{total_energy};
  result.total_cost = Usd{total_cost};
  if (overflowed) ++result.overflow_steps;
  if (config.enforce_p95) budgets.record_all(alloc.cluster_totals());

  m_steps.add();
  if (overflowed) m_overflows.add();
  if (m_step_energy.live()) {
    double step_mwh = 0.0;
    for (std::size_t c = 0; c < n_clusters; ++c) step_mwh += step_energy[c];
    m_step_energy.observe(step_mwh);
  }

  if (!observers.empty()) {
    const StepView view{hour, step, dt, alloc, step_energy, bill_price};
    for (StepObserver* obs : observers) obs->on_step(view);
  }

  // Distance metrics over the nonzero assignments only (an interval
  // touches ~1-2 clusters per state, not the full matrix).
  const double dt_value = dt.value();
  dist_stats.add_step(alloc, eng.distance_km_.data(), eng.distance_bin_.data(),
                      n_clusters, dt_value);
  // Branch-free hit-hours scan (the max() folds the old `> 0` guard:
  // zero or negative demand contributes exact +0.0), hoisted into its
  // own pass over the state axis.
  double hit_hours = result.hit_hours;
  for (std::size_t s = 0; s < n_states; ++s) {
    hit_hours += std::max(demand[s], 0.0) * dt_value;
  }
  result.hit_hours = hit_hours;

  ++step;
}

RunResult SimulationEngine::Session::State::finish() {
  const obs::Tracer::Span trace_finish =
      obs::maybe_span(engine->config_.taps.tracer, "engine/finish", "engine");
  result.mean_distance_km = dist_stats.mean();
  result.p99_distance_km = dist_stats.percentile(99.0);
  result.realized_p95.resize(n_clusters);
  for (std::size_t c = 0; c < n_clusters; ++c) {
    result.realized_p95[c] = load_p95[c].value();
  }
  for (StepObserver* obs : observers) obs->on_run_end(result);
  finished = true;

  m_runs.add();
  if (engine->config_.taps.metrics != nullptr) {
    // The run's router-counter deltas (plan rebuilds, ...), published
    // generically via Router::counters() so every plan-carrying router
    // is covered without downcasts.
    obs::MetricsRegistry& metrics = *engine->config_.taps.metrics;
    const obs::Labels labels{{"router", std::string(router->name())}};
    for (const RouterCounter& rc : router->counters()) {
      std::int64_t at_begin = 0;
      for (const RouterCounter& b : router_counters_begin) {
        if (b.name == rc.name) at_begin = b.value;
      }
      metrics
          .counter("cebis_router_" + std::string(rc.name) + "_total",
                   "Router counter (see Router::counters)", labels)
          .add(static_cast<double>(rc.value - at_begin));
    }
  }
  return std::move(result);
}

// --- Session surface --------------------------------------------------------

SimulationEngine::Session::Session(std::unique_ptr<State> state)
    : state_(std::move(state)) {}
SimulationEngine::Session::~Session() = default;
SimulationEngine::Session::Session(Session&&) noexcept = default;
SimulationEngine::Session& SimulationEngine::Session::operator=(
    Session&&) noexcept = default;

void SimulationEngine::Session::step() {
  if (state_->finished || state_->step >= state_->steps_total) {
    throw std::logic_error("Session::step: run already complete");
  }
  state_->step_once();
}

bool SimulationEngine::Session::done() const noexcept {
  return state_->step >= state_->steps_total;
}

std::int64_t SimulationEngine::Session::steps_done() const noexcept {
  return state_->step;
}

std::int64_t SimulationEngine::Session::steps_total() const noexcept {
  return state_->steps_total;
}

double SimulationEngine::Session::cost_so_far() const noexcept {
  return state_->result.total_cost.value();
}

double SimulationEngine::Session::energy_so_far() const noexcept {
  return state_->result.total_energy.value();
}

RunResult SimulationEngine::Session::finish() {
  if (!done()) throw std::logic_error("Session::finish: steps remain");
  if (state_->finished) throw std::logic_error("Session::finish: already finished");
  return state_->finish();
}

RunResult SimulationEngine::run(const Workload& workload, Router& router,
                                std::span<StepObserver* const> observers) const {
  Session session = begin(workload, router, observers);
  while (!session.done()) session.step();
  return session.finish();
}

}  // namespace cebis::core
