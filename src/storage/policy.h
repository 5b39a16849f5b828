#ifndef CEBIS_STORAGE_POLICY_H
#define CEBIS_STORAGE_POLICY_H

// Pluggable charge/discharge policies for battery-backed clusters.
//
// A ChargePolicy looks at one accounted interval (price, the cluster's
// grid load, the battery state) and returns a signed grid-side energy
// intent: positive = draw extra from the grid to charge, negative =
// serve that much of the load from the battery. The StorageController
// clamps the intent against the battery's physical limits, so policies
// can over-ask freely.
//
// The policy set is closed; make_policy builds its three members by
// name, mirroring the storage literature the ROADMAP names:
//  - "arbitrage":    greedy price thresholds (buy below, discharge above)
//  - "peak-shaving": flatten the grid draw toward a rolling demand
//                    target, the move that attacks demand-charge tariffs
//                    (Xu & Li, arXiv:1307.5442)
//  - "lyapunov":     online drift-plus-penalty price thresholds that
//                    tighten as the state of charge rises (Urgaonkar et
//                    al., arXiv:1103.3099)
//
// This header depends only on base/ + battery.h (core/scenario.h
// includes it for the PolicyConfig variant).

#include <memory>
#include <string_view>
#include <variant>

#include "base/simtime.h"
#include "base/units.h"
#include "storage/battery.h"

namespace cebis::storage {

/// One accounted interval as seen by a policy.
struct PolicyContext {
  HourIndex hour = 0;
  Hours dt{0.0};
  double price_usd_per_mwh = 0.0;  ///< concurrent price at this cluster
  double load_mwh = 0.0;           ///< grid energy the cluster draws this step
  const Battery* battery = nullptr;
};

class ChargePolicy {
 public:
  virtual ~ChargePolicy() = default;

  /// Called once before a run; resets any rolling state.
  virtual void begin(const BatteryParams& /*battery*/) {}

  /// Signed grid-side intent in MWh for this interval: > 0 charge,
  /// < 0 discharge (serve load from the battery). The controller clamps
  /// to the battery's power/energy limits and to the actual load.
  [[nodiscard]] virtual double decide(const PolicyContext& ctx) = 0;
};

// --- per-policy configuration ----------------------------------------------

/// Greedy arbitrage: charge at full power while the price is below
/// `charge_below`, discharge into the load while above `discharge_above`.
struct ArbitrageConfig {
  UsdPerMwh charge_below{30.0};
  UsdPerMwh discharge_above{60.0};
};

/// Peak shaving: track an exponentially weighted rolling mean of the
/// cluster's load power (time constant `window_hours`) and use
/// `target_margin` times that mean as the demand target - discharge to
/// clamp the grid draw to the target, recharge only below it.
struct PeakShavingConfig {
  double window_hours = 24.0;
  double target_margin = 1.0;
};

/// Online Lyapunov-drift policy: with theta = theta_fraction * capacity
/// and X = soc - theta, the drift-plus-penalty rule charges while
/// price < (theta - soc) * eta / v and discharges while
/// price > (theta - soc) / v (eta = round-trip efficiency); the 1/eta
/// gap between the thresholds at any soc is exactly the conversion
/// margin. Following the bounded price regimes of arXiv:1103.3099 the
/// rule is additionally clipped to a band around the *local* price
/// level - an exponentially weighted online mean, so a cheap hub and an
/// expensive hub each trade around their own level: never buy above
/// band_low x mean, never sell below band_high x mean. band_low <=
/// eta * band_high (validated at run begin) keeps every banded
/// round trip profitable at the battery's efficiency.
struct LyapunovConfig {
  double theta_fraction = 0.7;
  /// Price scale for the auto drift weight (v = theta / reference_price
  /// when v <= 0); the arXiv:1103.3099 choice is capacity over the
  /// price spread, and 120 $/MWh is the spread the calibrated market
  /// realizes between floor hours and p99.
  UsdPerMwh reference_price{120.0};
  /// MWh per ($/MWh); larger = flatter thresholds. <= 0 selects the
  /// auto scale.
  double v = 0.0;
  /// Trading band as multiples of the online mean price.
  double band_low = 0.8;
  double band_high = 1.35;
  /// Time constant of the online price mean.
  double price_window_hours = 24.0;
};

/// std::monostate = the policy's defaults; a populated alternative must
/// match the policy named in the spec (make_policy throws otherwise).
using PolicyConfig = std::variant<std::monostate, ArbitrageConfig,
                                  PeakShavingConfig, LyapunovConfig>;

/// Builds the named policy: "arbitrage", "peak-shaving" or "lyapunov",
/// each from its own PolicyConfig alternative (monostate = defaults).
/// Throws std::invalid_argument for any other name, a config
/// alternative that does not match the policy, or a config the policy
/// rejects.
[[nodiscard]] std::unique_ptr<ChargePolicy> make_policy(
    std::string_view name, const PolicyConfig& config = {});

}  // namespace cebis::storage

#endif  // CEBIS_STORAGE_POLICY_H
