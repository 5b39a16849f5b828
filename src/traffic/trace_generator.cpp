#include "traffic/trace_generator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/parallel.h"
#include "stats/rng.h"
#include "traffic/demand_model.h"

namespace cebis::traffic {

namespace {

constexpr std::uint64_t kStreamStateNoise = 1000;  // + state
constexpr std::uint64_t kStreamFlash = 2000;
constexpr std::uint64_t kStreamWorld = 3000;  // + region

/// Calls fn(step, shape) for every 5-minute step of `period`, the demand
/// shape interpolated linearly between the hourly values so traffic
/// ramps smoothly. Each hour's shape is computed once.
template <typename Fn>
void for_each_step_shape(const Period& period, int utc_offset, Fn&& fn) {
  double next = demand_shape(period.begin, utc_offset);
  std::int64_t step = 0;
  for (HourIndex hour = period.begin; hour < period.end; ++hour) {
    const double a = next;
    next = demand_shape(hour + 1, utc_offset);
    for (int i = 0; i < kStepsPerHour; ++i, ++step) {
      const double frac = static_cast<double>(i) / kStepsPerHour;
      fn(step, a + (next - a) * frac);
    }
  }
}

}  // namespace

TraceGenerator::TraceGenerator(const geo::StateRegistry& states,
                               TraceGeneratorConfig config, std::uint64_t seed)
    : states_(states), config_(config), seed_(seed) {}

TrafficTrace TraceGenerator::generate(const Period& period) const {
  TrafficTrace trace(period, states_.size());
  const auto steps = static_cast<std::size_t>(trace.steps());
  const stats::Rng base(seed_);

  // Flash crowds: sample event windows for the whole period up front.
  struct Flash {
    std::int64_t begin_step = 0;
    std::int64_t end_step = 0;
    double lift = 0.0;
  };
  std::vector<Flash> flashes;
  {
    stats::Rng rng = base.split(kStreamFlash);
    const double days = static_cast<double>(period.hours()) / 24.0;
    const int events = rng.poisson(config_.flash_per_day * days);
    for (int e = 0; e < events; ++e) {
      Flash f;
      f.begin_step = static_cast<std::int64_t>(rng.uniform() *
                                               static_cast<double>(trace.steps()));
      const std::int64_t duration =
          static_cast<std::int64_t>(rng.uniform(1.0, 3.0) * kStepsPerHour);
      f.end_step = std::min(trace.steps(), f.begin_step + duration);
      f.lift = rng.uniform(config_.flash_min_lift, config_.flash_max_lift);
      flashes.push_back(f);
    }
  }
  // Each step's flash-crowd multiplier, shared by every state.
  std::vector<double> flash_lift;
  flash_lift.reserve(steps);
  for (std::int64_t step = 0; step < trace.steps(); ++step) {
    double lift = 0.0;
    for (const auto& f : flashes) {
      if (step >= f.begin_step && step < f.end_step) lift += f.lift;
    }
    flash_lift.push_back(1.0 + lift);
  }

  // World aggregates: phase-shifted diurnal curves (UTC offsets roughly
  // central Europe +1, Asia-Pacific +9, rest of world -3).
  struct Region {
    WorldRegion region;
    double fraction;
    int utc_offset;
    std::uint64_t stream;
  };
  const Region regions[] = {
      {WorldRegion::kEurope, config_.europe_fraction, 1, 0},
      {WorldRegion::kAsiaPacific, config_.asia_fraction, 9, 1},
      {WorldRegion::kRestOfWorld, config_.rest_fraction, -3, 2},
  };

  // One task per block of states (AR(1) noise, jitter and the
  // deterministic shape), one block per worker so that workers write
  // disjoint runs of each [step][state] row, then one task per world
  // region, into a column of its own until the US total is calibrated.
  const auto states = states_.all();
  const double inno =
      config_.noise_sigma *
      std::sqrt(std::max(0.0, 1.0 - config_.noise_phi * config_.noise_phi));
  const int width = default_thread_count();
  const auto blocks = static_cast<std::size_t>(std::clamp<std::int64_t>(
      width, 1, static_cast<std::int64_t>(states.size())));
  std::vector<double> world(kWorldRegionCount * steps);
  parallel_for_index(
      static_cast<std::int64_t>(blocks + kWorldRegionCount), width,
      [&](std::int64_t task) {
        const auto k = static_cast<std::size_t>(task);
        if (k < blocks) {
          for (std::size_t si = states.size() * k / blocks;
               si < states.size() * (k + 1) / blocks; ++si) {
            const geo::StateInfo& st = states[si];
            const StateId id{static_cast<std::int32_t>(si)};
            stats::Rng rng = base.split(kStreamStateNoise + si);
            double ar = rng.normal(0.0, config_.noise_sigma);
            for_each_step_shape(period, st.utc_offset_hours,
                                [&](std::int64_t step, double shape) {
              ar = config_.noise_phi * ar + rng.normal(0.0, inno);
              const double jitter = rng.normal(0.0, config_.jitter_sigma);
              const double hits =
                  st.population * shape * std::max(0.0, 1.0 + ar + jitter) *
                  flash_lift[static_cast<std::size_t>(step)];
              trace.set_hits(step, id, HitsPerSec{hits});
            });
          }
          return;
        }
        const Region& r = regions[k - blocks];
        double* column = world.data() + (k - blocks) * steps;
        stats::Rng rng = base.split(kStreamWorld + r.stream);
        double ar = rng.normal(0.0, config_.noise_sigma);
        const double peak_hits = config_.target_us_peak * r.fraction;
        for_each_step_shape(period, r.utc_offset,
                            [&](std::int64_t step, double shape) {
          ar = config_.noise_phi * ar + rng.normal(0.0, inno);
          column[static_cast<std::size_t>(step)] =
              peak_hits * shape * std::max(0.0, 1.0 + ar);
        });
      });

  // Calibrate the US total to the target peak. The world aggregates are
  // set after, unscaled: their peaks are fractions of the target itself.
  double peak = 0.0;
  for (std::int64_t step = 0; step < trace.steps(); ++step) {
    peak = std::max(peak, trace.us_total(step).value());
  }
  if (peak > 0.0) trace.scale(config_.target_us_peak / peak);

  for (std::size_t ri = 0; ri < kWorldRegionCount; ++ri) {
    const double* column = world.data() + ri * steps;
    for (std::size_t step = 0; step < steps; ++step) {
      trace.set_world(static_cast<std::int64_t>(step), regions[ri].region,
                      HitsPerSec{column[step]});
    }
  }
  return trace;
}

}  // namespace cebis::traffic
