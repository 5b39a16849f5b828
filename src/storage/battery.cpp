#include "storage/battery.h"

#include <algorithm>
#include <stdexcept>

namespace cebis::storage {

Battery::Battery(const BatteryParams& params)
    : params_(params),
      soc_(params.capacity * std::clamp(params.initial_soc_fraction, 0.0, 1.0)) {
  if (params.capacity.value() < 0.0) {
    throw std::invalid_argument("Battery: negative capacity");
  }
  if (params.max_charge.value() < 0.0 || params.max_discharge.value() < 0.0) {
    throw std::invalid_argument("Battery: negative power limit");
  }
  if (params.round_trip_efficiency <= 0.0 || params.round_trip_efficiency > 1.0) {
    throw std::invalid_argument("Battery: efficiency outside (0, 1]");
  }
  if (params.initial_soc_fraction < 0.0 || params.initial_soc_fraction > 1.0) {
    throw std::invalid_argument("Battery: initial soc fraction outside [0, 1]");
  }
}

MegawattHours Battery::charge(MegawattHours grid_request, Hours dt) {
  if (grid_request.value() <= 0.0 || dt.value() <= 0.0) return MegawattHours{0.0};
  const double power_cap = (params_.max_charge * dt).value();
  const double drawn = std::min({grid_request.value(), power_cap,
                                 headroom_grid().value()});
  if (drawn <= 0.0) return MegawattHours{0.0};
  soc_ += MegawattHours{drawn * params_.round_trip_efficiency};
  // Clamp FP drift only; the min() above keeps this a no-op analytically.
  soc_ = std::min(soc_, params_.capacity);
  charged_ += MegawattHours{drawn};
  return MegawattHours{drawn};
}

MegawattHours Battery::discharge(MegawattHours load_request, Hours dt) {
  if (load_request.value() <= 0.0 || dt.value() <= 0.0) return MegawattHours{0.0};
  const double power_cap = (params_.max_discharge * dt).value();
  const double delivered =
      std::min({load_request.value(), power_cap, soc_.value()});
  if (delivered <= 0.0) return MegawattHours{0.0};
  soc_ -= MegawattHours{delivered};
  soc_ = std::max(soc_, MegawattHours{0.0});
  discharged_ += MegawattHours{delivered};
  return MegawattHours{delivered};
}

MegawattHours Battery::headroom_grid() const noexcept {
  return MegawattHours{(params_.capacity - soc_).value() /
                       params_.round_trip_efficiency};
}

MegawattHours Battery::conversion_loss() const noexcept {
  return MegawattHours{charged_.value() * (1.0 - params_.round_trip_efficiency)};
}

BatteryParams battery_for_mean_load(double mean_load_mwh_per_hour,
                                    double hours_of_storage, double c_rate_hours,
                                    double efficiency) {
  if (mean_load_mwh_per_hour < 0.0 || hours_of_storage < 0.0 ||
      c_rate_hours <= 0.0) {
    throw std::invalid_argument("battery_for_mean_load: negative sizing input");
  }
  BatteryParams p;
  p.capacity = MegawattHours{mean_load_mwh_per_hour * hours_of_storage};
  // capacity [MWh] / c_rate [h] = MW; Watts carries the raw W value.
  p.max_charge = Watts{p.capacity.value() / c_rate_hours * 1e6};
  p.max_discharge = p.max_charge;
  p.round_trip_efficiency = efficiency;
  return p;
}

}  // namespace cebis::storage
