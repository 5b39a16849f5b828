#include "traffic/trace.h"

#include <numeric>
#include <stdexcept>

namespace cebis::traffic {

std::string_view to_string(WorldRegion r) noexcept {
  switch (r) {
    case WorldRegion::kEurope: return "Europe";
    case WorldRegion::kAsiaPacific: return "Asia-Pacific";
    case WorldRegion::kRestOfWorld: return "Rest of world";
  }
  return "?";
}

TrafficTrace::TrafficTrace(Period period, std::size_t state_count)
    : period_(period), state_count_(state_count) {
  if (state_count_ == 0) throw std::invalid_argument("TrafficTrace: no states");
  if (period_.hours() <= 0) throw std::invalid_argument("TrafficTrace: empty period");
  us_.assign(static_cast<std::size_t>(steps()) * state_count_, 0.0);
  world_.assign(static_cast<std::size_t>(steps()) * kWorldRegionCount, 0.0);
}

std::size_t TrafficTrace::check_step(std::int64_t step) const {
  if (step < 0 || step >= steps()) throw std::out_of_range("TrafficTrace: bad step");
  return static_cast<std::size_t>(step);
}

HitsPerSec TrafficTrace::hits(std::int64_t step, StateId state) const {
  const std::size_t s = check_step(step);
  if (!state.valid() || state.index() >= state_count_) {
    throw std::out_of_range("TrafficTrace: bad state");
  }
  return HitsPerSec{us_[s * state_count_ + state.index()]};
}

void TrafficTrace::set_hits(std::int64_t step, StateId state, HitsPerSec value) {
  const std::size_t s = check_step(step);
  if (!state.valid() || state.index() >= state_count_) {
    throw std::out_of_range("TrafficTrace: bad state");
  }
  us_[s * state_count_ + state.index()] = value.value();
}

void TrafficTrace::set_world(std::int64_t step, WorldRegion region, HitsPerSec value) {
  const std::size_t s = check_step(step);
  world_[s * kWorldRegionCount + static_cast<std::size_t>(region)] = value.value();
}

HitsPerSec TrafficTrace::us_total(std::int64_t step) const {
  const auto row = state_row(step);
  return HitsPerSec{std::accumulate(row.begin(), row.end(), 0.0)};
}

HitsPerSec TrafficTrace::global_total(std::int64_t step) const {
  const std::size_t s = check_step(step);
  double sum = us_total(step).value();
  for (int r = 0; r < kWorldRegionCount; ++r) {
    sum += world_[s * kWorldRegionCount + static_cast<std::size_t>(r)];
  }
  return HitsPerSec{sum};
}

std::span<const double> TrafficTrace::state_row(std::int64_t step) const {
  const std::size_t s = check_step(step);
  return std::span<const double>(us_).subspan(s * state_count_, state_count_);
}

void TrafficTrace::scale(double factor) {
  if (factor <= 0.0) throw std::invalid_argument("TrafficTrace::scale: factor <= 0");
  for (double& v : us_) v *= factor;
  for (double& v : world_) v *= factor;
}

}  // namespace cebis::traffic
