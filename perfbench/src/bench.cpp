#include "bench.h"

#include <algorithm>
#include <cmath>

#include "core/workload.h"
#include "energy/energy_model.h"
#include "service/replay.h"

namespace perfbench {

using namespace cebis;

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::logic_error("percentile of an empty sample");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

SpanLog* Tracing::thread_log() {
  const std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<int>(logs_.size()), 1u << 14));
  return logs_.back().get();
}

std::vector<const SpanLog*> Tracing::logs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const SpanLog*> out;
  for (const auto& log : logs_) out.push_back(log.get());
  return out;
}

std::int64_t plan_rebuilds(const core::Router& router) {
  for (const core::RouterCounter& c : router.counters()) {
    if (c.name == "plan_rebuilds") return c.value;
  }
  return -1;
}

TimedRouter::TimedRouter(core::Router& inner, SpanLog& log,
                         std::int64_t request)
    : inner_(inner), log_(log), request_(request),
      rebuilds_(plan_rebuilds(inner)) {}

void TimedRouter::route(const core::RoutingContext& ctx,
                        core::Allocation& out) {
  const std::int64_t request = request_ >= 0 ? request_ : calls_;
  ++calls_;
  const std::int64_t t0 = now_ns();
  inner_.route(ctx, out);
  const std::int64_t t1 = now_ns();
  if (rebuilds_ < 0) {
    log_.add("core.route", t0, t1, request);
    return;
  }
  const std::int64_t rebuilds = plan_rebuilds(inner_);
  const std::int64_t t2 = now_ns();
  log_.add(rebuilds != rebuilds_ ? "core.route.rebuild" : "core.route.replay",
           t0, t1, request);
  log_.add("bench.counter_read", t1, t2, request);
  rebuilds_ = rebuilds;
}

void TimedObserver::on_run_begin(const core::RunInfo& info,
                                 std::span<const core::Cluster> clusters) {
  const Scope scope(&log_, names_.run_begin);
  inner_.on_run_begin(info, clusters);
}

void TimedObserver::on_step(const core::StepView& view) {
  const std::int64_t t0 = now_ns();
  inner_.on_step(view);
  log_.add(names_.on_step, t0, now_ns(), view.step);
}

void TimedObserver::on_run_end(core::RunResult& result) {
  const Scope scope(&log_, names_.run_end);
  inner_.on_run_end(result);
}

ReplayCheck check_replay(const core::Fixture& fixture,
                         const std::string& log_path,
                         const core::RunResult& expected, std::size_t steps,
                         const std::string& what, SpanLog* log) {
  ReplayCheck out;
  const std::int64_t t0 = now_ns();
  {
    const Scope scope(log, "service.read_session");
    out.session = service::read_session(log_path);
  }
  core::RunResult replayed;
  {
    const Scope scope(log, "service.replay");
    replayed = service::replay(fixture, out.session);
  }
  out.wall_s = seconds_since(t0);
  const Scope scope(log, "bench.check");
  const std::string diff = service::diff_run_results(expected, replayed);
  check(diff.empty(), what + " log replay differs from the run: " + diff);
  check(out.session.decisions.size() == steps,
        what + " log holds " + std::to_string(out.session.decisions.size()) +
            " decisions for " + std::to_string(steps) + " steps");
  return out;
}

service::LiveConfig session_config(Period period) {
  service::LiveConfig config;
  config.router = "price-aware";
  config.period = period;
  config.steps_per_hour = 12;
  config.samples_per_hour = 12;
  config.shadow_baseline = true;
  core::StorageSpec storage;
  storage.policy = "lyapunov";
  storage.battery.capacity = MegawattHours{1.0};
  storage.battery.max_charge = Watts{400'000.0};
  storage.battery.max_discharge = Watts{400'000.0};
  storage.battery.round_trip_efficiency = 0.9;
  storage.tariff.demand_usd_per_kw_month = Usd{12.0};
  config.storage = storage;
  return config;
}

SessionFeed make_feed(const core::Fixture& fixture, Period period) {
  const service::LiveConfig config = session_config(period);
  SessionFeed feed;
  // The meta a LiveEngine writes for this config (shape fields included).
  feed.meta = service::LiveEngine(fixture, config).meta();

  const int sph = config.samples_per_hour;
  const Period priced{period.begin - config.delay_hours, period.end};
  const market::PriceSet& prices = fixture.prices_covering(priced, sph);
  std::vector<HubId> hubs;
  for (const core::Cluster& c : fixture.clusters) {
    if (std::none_of(hubs.begin(), hubs.end(), [&c](HubId h) {
          return h.index() == c.hub.index();
        })) {
      hubs.push_back(c.hub);
    }
  }
  for (std::int64_t interval = priced.begin * sph; interval < period.end * sph;
       ++interval) {
    const HourIndex hour = interval / sph;
    const int sub = static_cast<int>(interval - hour * sph);
    for (const HubId hub : hubs) {
      feed.ticks.push_back(
          {hub, interval, prices.rt_at(hub, hour, sub).value()});
    }
  }

  const core::TraceWorkload demand(fixture.trace, fixture.allocation);
  const std::int64_t first =
      (period.begin - fixture.trace.period().begin) * demand.steps_per_hour();
  const std::int64_t steps = period.hours() * demand.steps_per_hour();
  std::vector<double> row(demand.state_count(), 0.0);
  for (std::int64_t j = 0; j < steps; ++j) {
    demand.demand(first + j, row);
    feed.steps.push_back({j, row});
  }
  return feed;
}

Period session_period(const Context& ctx) {
  const Period trace = ctx.fixture->trace.period();
  return ctx.tiny ? Period{trace.begin, trace.begin + 48} : trace;
}

}  // namespace perfbench
