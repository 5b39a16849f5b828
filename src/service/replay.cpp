#include "service/replay.h"

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "service/live_engine.h"

namespace cebis::service {

core::RunResult replay(const core::Fixture& fixture,
                       const RecordedSession& session) {
  const SessionMeta& meta = session.meta;
  if (fixture.seed != meta.seed) {
    throw std::invalid_argument(
        "replay: fixture seed " + std::to_string(fixture.seed) +
        " does not match the recorded session's seed " +
        std::to_string(meta.seed));
  }

  // The session as it was configured, minus the runtime knobs no log
  // carries: no shadow baseline, no taps, no log.
  LiveConfig config;
  static_cast<SessionSpec&>(config) = meta;
  config.shadow_baseline = false;
  LiveEngine live(fixture, config);
  if (live.cluster_count() != meta.n_clusters) {
    throw std::invalid_argument(
        "replay: fixture resolves " + std::to_string(live.cluster_count()) +
        " clusters, the session recorded " + std::to_string(meta.n_clusters));
  }
  if (live.state_count() != meta.n_states) {
    throw std::invalid_argument(
        "replay: fixture has " + std::to_string(live.state_count()) +
        " states, the session recorded " + std::to_string(meta.n_states));
  }
  if (static_cast<std::int64_t>(session.steps.size()) != live.steps_total()) {
    throw std::invalid_argument(
        "replay: session recorded " + std::to_string(session.steps.size()) +
        " workload steps, the period needs " +
        std::to_string(live.steps_total()));
  }

  for (const PriceTickRecord& tick : session.ticks) {
    live.on_price_tick(tick.hub, tick.interval, tick.price);
  }
  for (std::size_t i = 0; i < session.steps.size(); ++i) {
    const WorkloadStepRecord& rec = session.steps[i];
    if (rec.step != static_cast<std::int64_t>(i)) {
      throw std::invalid_argument("replay: workload step records out of order");
    }
    // A log whose ticks stop short would leave the step's prices as
    // unpriced placeholders: refuse it rather than replay NaN.
    if (live.needed_end() > live.sealed_end()) {
      throw std::invalid_argument(
          "replay: step " + std::to_string(i) +
          " needs prices sealed through interval " +
          std::to_string(live.needed_end()) + ", the recorded ticks seal " +
          std::to_string(live.sealed_end()));
    }
    live.advance(rec.demand);
  }
  return live.finish();
}

core::RunResult replay_file(const core::Fixture& fixture,
                            const std::string& path) {
  return replay(fixture, read_session(path));
}

// --- bitwise comparison -----------------------------------------------------

namespace {

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Appends nothing when equal; else a "name: a vs b" line.
void diff_scalar(std::string& out, const char* name, double a, double b) {
  if (!out.empty() || same_bits(a, b)) return;
  out = std::string(name) + ": " + std::to_string(a) + " vs " +
        std::to_string(b);
}

void diff_int(std::string& out, const char* name, std::int64_t a,
              std::int64_t b) {
  if (!out.empty() || a == b) return;
  out = std::string(name) + ": " + std::to_string(a) + " vs " +
        std::to_string(b);
}

void diff_vector(std::string& out, const char* name, std::span<const double> a,
                 std::span<const double> b) {
  if (!out.empty()) return;
  if (a.size() != b.size()) {
    out = std::string(name) + ": size " + std::to_string(a.size()) + " vs " +
          std::to_string(b.size());
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) {
      out = std::string(name) + "[" + std::to_string(i) + "]: " +
            std::to_string(a[i]) + " vs " + std::to_string(b[i]);
      return;
    }
  }
}

}  // namespace

std::string diff_run_results(const core::RunResult& a,
                             const core::RunResult& b) {
  std::string out;
  diff_scalar(out, "total_cost", a.total_cost.value(), b.total_cost.value());
  diff_scalar(out, "total_energy", a.total_energy.value(),
              b.total_energy.value());
  diff_vector(out, "cluster_cost", a.cluster_cost, b.cluster_cost);
  diff_vector(out, "cluster_energy", a.cluster_energy, b.cluster_energy);
  diff_scalar(out, "mean_distance_km", a.mean_distance_km, b.mean_distance_km);
  diff_scalar(out, "p99_distance_km", a.p99_distance_km, b.p99_distance_km);
  diff_vector(out, "realized_p95", a.realized_p95, b.realized_p95);
  diff_scalar(out, "hit_hours", a.hit_hours, b.hit_hours);
  diff_int(out, "overflow_steps", a.overflow_steps, b.overflow_steps);
  diff_int(out, "hourly_energy.samples_per_hour",
           a.hourly_energy.samples_per_hour(),
           b.hourly_energy.samples_per_hour());
  diff_int(out, "hourly_energy.clusters",
           static_cast<std::int64_t>(a.hourly_energy.clusters()),
           static_cast<std::int64_t>(b.hourly_energy.clusters()));
  diff_vector(out, "hourly_energy.data", a.hourly_energy.data(),
              b.hourly_energy.data());
  diff_int(out, "storage.engaged", a.storage.engaged ? 1 : 0,
           b.storage.engaged ? 1 : 0);
  diff_scalar(out, "storage.raw_energy", a.storage.raw_energy.value(),
              b.storage.raw_energy.value());
  diff_scalar(out, "storage.raw_demand", a.storage.raw_demand.value(),
              b.storage.raw_demand.value());
  diff_scalar(out, "storage.net_energy", a.storage.net_energy.value(),
              b.storage.net_energy.value());
  diff_scalar(out, "storage.net_demand", a.storage.net_demand.value(),
              b.storage.net_demand.value());
  diff_scalar(out, "storage.charged_mwh", a.storage.charged_mwh,
              b.storage.charged_mwh);
  diff_scalar(out, "storage.discharged_mwh", a.storage.discharged_mwh,
              b.storage.discharged_mwh);
  diff_scalar(out, "storage.loss_mwh", a.storage.loss_mwh, b.storage.loss_mwh);
  diff_scalar(out, "storage.final_soc_mwh", a.storage.final_soc_mwh,
              b.storage.final_soc_mwh);
  diff_vector(out, "storage.cluster_raw_usd", a.storage.cluster_raw_usd,
              b.storage.cluster_raw_usd);
  diff_vector(out, "storage.cluster_net_usd", a.storage.cluster_net_usd,
              b.storage.cluster_net_usd);
  return out;
}

}  // namespace cebis::service
