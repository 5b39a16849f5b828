#ifndef CEBIS_MARKET_PRICE_MODEL_H
#define CEBIS_MARKET_PRICE_MODEL_H

// Parameters and deterministic shape components of the price process.
//
// The stochastic model (see market/market_simulator.h) is
//
//   price_h(t) = clamp( S_h(t) * exp(x_h(t) + micro) + J_h(t) )
//
//   S_h(t) = base_h * fuel_r(t) * seasonal(month) * diurnal(local hour)
//   x_h(t) = N(t) + R_rto(t) + L_h(t)        (AR(1) factors)
//   J_h(t) = heavy-tailed spike process       (Pareto, mostly positive)
//
// The deterministic parts live here: the diurnal/weekend/seasonal shape
// tables and the 39-month national fuel curve (the 2008 natural-gas hump
// and 2009 downturn visible in Fig 3), plus the hydro-dominated
// Northwest's flat curve with its April rainfall dips.

#include <map>

#include "base/simtime.h"
#include "market/rto.h"

namespace cebis::market {

struct FactorParams {
  // Stationary std-devs and hourly AR(1) coefficients of the log-price
  // factors. National couples everything weakly (fuel/economy). Two
  // regional factors couple hubs inside one RTO: a slow one (multi-day
  // price regimes) and a fast one (hour-to-hour market swings - this is
  // what makes hourly changes large *and* regionally correlated, per
  // Fig 7 + Fig 8). The local factor adds per-hub noise whose
  // innovations are spatially correlated inside the RTO (exponential
  // kernel with range lambda_km).
  double sigma_national = 0.10;
  double phi_national = 0.995;
  double sigma_regional = 0.24;
  double phi_regional = 0.98;
  double sigma_regional_fast = 0.24;
  double phi_regional_fast = 0.55;
  double sigma_local = 0.14;
  double phi_local = 0.82;
  double micro_sigma = 0.06;  ///< iid per-hour log noise (bid churn)
  double lambda_km = 600.0;   ///< default spatial kernel range
};

struct SpikeParams {
  double onset_per_hour = 0.006;      ///< per-hub spike birth probability
  double rto_event_per_hour = 0.012;  ///< RTO-wide congestion events
  double rto_participation = 0.85;    ///< hub joins an RTO event w.p. this
  double pareto_xm = 18.0;            ///< $/MWh minimum spike magnitude
  double pareto_alpha = 2.2;          ///< tail index
  double magnitude_cap = 1000.0;  ///< per-hub cap (differentials reach ~$1900, §3.3)
  double p_negative = 0.06;       ///< negative-price events (§2.2)
  double negative_scale = 0.5;
  double persist = 0.45;          ///< probability a spike survives an hour
  double decay = 0.50;            ///< surviving spike magnitude multiplier

  // Scarcity events: rare, sustained, near-cap price excursions (the
  // hurricane/cold-snap events that give ERCOT-style differentials their
  // enormous kurtosis - Fig 10b reports kappa = 466).
  double scarcity_per_hour = 1.5e-4;  ///< per-RTO event rate (scaled below)
  double scarcity_lo = 350.0;         ///< $/MWh magnitude range
  double scarcity_hi = 1700.0;
  double scarcity_persist = 0.70;     ///< hourly survival probability
};

struct DayAheadParams {
  double noise_sigma = 0.055;  ///< per-hour DA idiosyncratic noise
  double premium = 1.04;       ///< DA mean premium over RT (§3.1: RT mean lower)
};

struct FiveMinParams {
  double phi = 0.80;     ///< AR(1) across 5-min steps within the hour
  double sigma = 0.055;  ///< stationary log sigma of 5-min deviations
  double spike_rate = 0.004;  ///< extra short spikes per 5-min step
  double spike_scale = 35.0;
};

struct PriceModelParams {
  FactorParams factors;
  SpikeParams spikes;
  DayAheadParams day_ahead;
  FiveMinParams five_min;
  double price_floor = -30.0;
  double price_cap = 2000.0;

  /// Per-RTO spatial-kernel overrides (CAISO's two hubs are ~0.94
  /// correlated in the paper, far above the default kernel). Ordered
  /// maps: these sit in the calibrated price model, where hash-order
  /// iteration would be a determinism hazard (cebis-lint
  /// unordered-iteration) and the handful of RTO keys makes std::map
  /// just as fast.
  std::map<Rto, double> lambda_km_override;

  /// Per-RTO multiplier on the scarcity-event rate (ERCOT runs hot).
  std::map<Rto, double> scarcity_rate_scale;

  [[nodiscard]] double lambda_for(Rto rto) const {
    const auto it = lambda_km_override.find(rto);
    return it == lambda_km_override.end() ? factors.lambda_km : it->second;
  }

  [[nodiscard]] double scarcity_scale_for(Rto rto) const {
    const auto it = scarcity_rate_scale.find(rto);
    return it == scarcity_rate_scale.end() ? 1.0 : it->second;
  }

  /// Defaults calibrated against the paper's Figs 5-13 statistics (see
  /// tests/test_market_calibration.cpp).
  [[nodiscard]] static PriceModelParams defaults();
};

// --- deterministic shapes -----------------------------------------------

/// Hour-of-day multiplier (mean 1.0 across the day). Weekends flatten
/// toward 1.0 and sit slightly lower on average.
[[nodiscard]] double diurnal_multiplier(int local_hour, bool weekend) noexcept;

/// Month-of-year multiplier (summer peak, mild winter bump).
[[nodiscard]] double seasonal_multiplier(int month_1_to_12) noexcept;

/// Per-RTO sensitivity to the national fuel curve. Gas-heavy regions
/// (ERCOT ~86% gas+coal) track it fully; hydro regions not at all.
[[nodiscard]] double gas_sensitivity(Rto rto) noexcept;

/// National fuel-price multiplier for a study month (0 = Jan 2006 ..
/// 38 = Mar 2009): ~1.0 through 2006-07, ramp to ~1.45 mid-2008, crash
/// to ~0.75 in early 2009.
[[nodiscard]] double national_fuel_curve(int month_index) noexcept;

/// Hydro-region (Northwest) multiplier: flat, with spring runoff dips
/// near April (Fig 3's "dips near April").
[[nodiscard]] double hydro_seasonal_curve(int month_index) noexcept;

/// Full deterministic component S_h(t)/base_h for a hub-like location.
/// `date` is date_of(t), which a caller pricing many hubs at one hour
/// computes once for all of them.
[[nodiscard]] double deterministic_shape(HourIndex t, const CivilDate& date,
                                         int utc_offset_hours, Rto rto) noexcept;

}  // namespace cebis::market

#endif  // CEBIS_MARKET_PRICE_MODEL_H
