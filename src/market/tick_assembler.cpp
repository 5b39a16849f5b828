#include "market/tick_assembler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace cebis::market {

TickAssembler::TickAssembler(Period priced, int samples_per_hour,
                             std::size_t hub_count, std::vector<HubId> tracked)
    : priced_(priced),
      samples_per_hour_(samples_per_hour),
      tracked_(std::move(tracked)) {
  if (priced_.hours() <= 0) {
    throw std::invalid_argument("TickAssembler: empty priced window");
  }
  if (!divides_hour(samples_per_hour_)) {
    throw std::invalid_argument(
        "TickAssembler: samples_per_hour must divide 60");
  }
  if (tracked_.empty()) {
    throw std::invalid_argument("TickAssembler: no tracked hubs");
  }
  // Dedup so one hub serving several clusters is sealed (and filled)
  // once, not required to tick twice.
  std::sort(tracked_.begin(), tracked_.end(),
            [](HubId a, HubId b) { return a.index() < b.index(); });
  tracked_.erase(std::unique(tracked_.begin(), tracked_.end(),
                             [](HubId a, HubId b) {
                               return a.index() == b.index();
                             }),
                 tracked_.end());
  for (const HubId hub : tracked_) {
    if (hub.index() >= hub_count) {
      throw std::invalid_argument("TickAssembler: tracked hub outside registry");
    }
  }

  set_.period = priced_;
  set_.samples_per_hour = samples_per_hour_;
  set_.rt.resize(hub_count);
  set_.da.resize(hub_count);
  const std::size_t per_hub =
      static_cast<std::size_t>(priced_.hours()) *
      static_cast<std::size_t>(samples_per_hour_);
  for (const HubId hub : tracked_) {
    // NaN placeholders: a read past the sealed prefix poisons every
    // downstream number instead of silently looking like a $0 price.
    set_.rt[hub.index()] = PriceSeries(
        priced_, samples_per_hour_,
        std::vector<double>(per_hub, std::numeric_limits<double>::quiet_NaN()));
  }
  next_.assign(tracked_.size(), first_interval());
}

void TickAssembler::add(HubId hub, std::int64_t interval, double price) {
  const auto it =
      std::lower_bound(tracked_.begin(), tracked_.end(), hub,
                       [](HubId a, HubId b) { return a.index() < b.index(); });
  if (it == tracked_.end() || it->index() != hub.index()) {
    throw std::invalid_argument("TickAssembler::add: hub " +
                                std::to_string(hub.index()) +
                                " is not tracked by this session");
  }
  const std::int64_t last =
      priced_.end * static_cast<std::int64_t>(samples_per_hour_);
  if (interval < first_interval() || interval >= last) {
    throw std::invalid_argument(
        "TickAssembler::add: interval " + std::to_string(interval) +
        " outside the priced window [" + std::to_string(first_interval()) +
        ", " + std::to_string(last) + ")");
  }
  std::int64_t& next = next_[static_cast<std::size_t>(it - tracked_.begin())];
  if (interval != next) {
    throw std::invalid_argument(
        "TickAssembler::add: hub " + std::to_string(hub.index()) +
        " expected interval " + std::to_string(next) + ", got " +
        std::to_string(interval) + " (ticks must be gapless and in order)");
  }
  if (!std::isfinite(price)) {
    throw std::invalid_argument("TickAssembler::add: hub " +
                                std::to_string(hub.index()) + " interval " +
                                std::to_string(interval) +
                                " price is not finite");
  }
  const HourIndex hour = interval / samples_per_hour_;
  const int sub = static_cast<int>(interval - hour * samples_per_hour_);
  set_.rt[hub.index()].set_sample(hour, sub, price);
  ++next;
  ++ticks_;
}

std::int64_t TickAssembler::sealed_end() const noexcept {
  std::int64_t sealed = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t next : next_) sealed = std::min(sealed, next);
  return sealed;
}

}  // namespace cebis::market
