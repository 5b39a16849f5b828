#ifndef CEBIS_STORAGE_BATTERY_H
#define CEBIS_STORAGE_BATTERY_H

// Battery / UPS energy-storage model (extension beyond the paper: the
// paper shifts load in *space*; storage shifts it in *time*, following
// the online charge/discharge literature, e.g. Urgaonkar et al.,
// arXiv:1103.3099). The model is deliberately simple and conservative:
// a usable energy capacity, separate charge/discharge power limits, and
// a round-trip efficiency applied entirely on the charge leg, so that
//
//   soc = initial_soc + efficiency * total_charged - total_discharged
//
// holds exactly at every instant (the conservation invariant the fuzz
// tests pin). Depends only on base/ - policies and the scenario wiring
// live in storage/policy.h and storage/storage_controller.h.

#include "base/units.h"

namespace cebis::storage {

struct BatteryParams {
  /// Usable energy capacity. Zero capacity is a valid "no battery"
  /// configuration: charge/discharge then always return zero.
  MegawattHours capacity{0.0};
  /// Grid-side charging power limit.
  Watts max_charge{0.0};
  /// Load-side discharging power limit.
  Watts max_discharge{0.0};
  /// Round-trip AC-AC efficiency in (0, 1], applied on the charge leg:
  /// storing 1 MWh of grid energy adds `round_trip_efficiency` MWh of
  /// state of charge; discharging is 1:1.
  double round_trip_efficiency = 0.85;
  /// Initial state of charge as a fraction of capacity, in [0, 1].
  double initial_soc_fraction = 0.0;
};

/// One battery with hard state-of-charge invariants (0 <= soc <=
/// capacity, power and efficiency limits respected) and cumulative
/// energy accounting. Throws std::invalid_argument on bad parameters.
class Battery {
 public:
  explicit Battery(const BatteryParams& params);

  /// Draws up to `grid_request` MWh from the grid over a step of length
  /// `dt`, limited by the charge power and the remaining headroom.
  /// Returns the grid energy actually drawn (stored energy is the
  /// returned amount times the round-trip efficiency).
  MegawattHours charge(MegawattHours grid_request, Hours dt);

  /// Delivers up to `load_request` MWh to the load over `dt`, limited by
  /// the discharge power and the state of charge. Returns the energy
  /// actually delivered.
  MegawattHours discharge(MegawattHours load_request, Hours dt);

  [[nodiscard]] const BatteryParams& params() const noexcept { return params_; }
  [[nodiscard]] MegawattHours soc() const noexcept { return soc_; }
  /// Remaining grid-side energy the battery can absorb instantaneously
  /// (headroom / efficiency), ignoring the power limit.
  [[nodiscard]] MegawattHours headroom_grid() const noexcept;

  /// Cumulative grid energy drawn by charge().
  [[nodiscard]] MegawattHours total_charged() const noexcept { return charged_; }
  /// Cumulative energy delivered by discharge().
  [[nodiscard]] MegawattHours total_discharged() const noexcept {
    return discharged_;
  }
  /// Cumulative conversion loss: (1 - efficiency) * total_charged.
  [[nodiscard]] MegawattHours conversion_loss() const noexcept;

 private:
  BatteryParams params_;
  MegawattHours soc_;
  MegawattHours charged_{0.0};
  MegawattHours discharged_{0.0};
};

/// Battery sized relative to a cluster's mean hourly load: capacity =
/// `hours_of_storage` x the mean load, charge/discharge power =
/// capacity / `c_rate_hours` (a 4-hour battery by default, the typical
/// grid-storage duration).
[[nodiscard]] BatteryParams battery_for_mean_load(double mean_load_mwh_per_hour,
                                                  double hours_of_storage,
                                                  double c_rate_hours = 4.0,
                                                  double efficiency = 0.85);

}  // namespace cebis::storage

#endif  // CEBIS_STORAGE_BATTERY_H
