#ifndef CEBIS_ENERGY_ENERGY_MODEL_H
#define CEBIS_ENERGY_ENERGY_MODEL_H

// The paper's cluster energy model (§5.1), adapted from Google's
// warehouse-scale power study (Fan, Weber, Barroso):
//
//   P_cluster(u) = F(n) + V(u, n) + eps
//   F(n) = n * (P_idle + (PUE - 1) * P_peak)
//   V(u, n) = n * (P_peak - P_idle) * (2u - u^r),  r = 1.4
//
// u is average CPU utilization in [0, 1]. The PUE term (cooling and
// distribution overhead) is charged against peak power, as the paper
// does. The paper stresses that only the ratio P_cluster(0)/P_cluster(1)
// ("energy elasticity") matters for relative savings.

#include <algorithm>
#include <cmath>
#include <span>
#include <string_view>

#include "base/units.h"

namespace cebis::energy {

/// Parameters of the cluster power model.
struct EnergyModelParams {
  double peak_watts = 250.0;    ///< per-server peak draw (Akamai measurement)
  double idle_fraction = 0.65;  ///< P_idle / P_peak
  double pue = 1.3;             ///< data-center power usage effectiveness
  double exponent_r = 1.4;      ///< empirical curvature from the Google study
  double epsilon_watts = 0.0;   ///< empirical per-server correction

  /// The paper's §5.1 model charges the PUE overhead against *peak*
  /// power (a fixed, load-independent cooling burn). Setting this flag
  /// makes the overhead track the actual IT draw instead:
  /// P = PUE * P_IT(u). The chillers then work in proportion to the
  /// heat actually dissipated - the refinement the §8 "Weather
  /// Differentials" extension needs for load-shifting to move cooling
  /// energy at all.
  bool cooling_tracks_load = false;

  [[nodiscard]] constexpr double idle_watts() const noexcept {
    return peak_watts * idle_fraction;
  }
};

class ClusterEnergyModel {
 public:
  explicit ClusterEnergyModel(EnergyModelParams params);

  /// Power drawn by a cluster of `servers` machines at utilization u.
  /// u is clamped to [0, 1] (the paper's capacity constraints keep it
  /// there; clamping guards against float drift). Inline: the engine
  /// calls it for every cluster on every step.
  [[nodiscard]] Watts power(double utilization, int servers) const {
    if (servers < 0) negative_servers();
    const double u = std::clamp(utilization, 0.0, 1.0);
    const double n = static_cast<double>(servers);
    const double p_peak = params_.peak_watts;
    const double p_idle = params_.idle_watts();
    const double variable =
        n * (p_peak - p_idle) * (2.0 * u - std::pow(u, params_.exponent_r));
    if (params_.cooling_tracks_load) {
      // Variable-cooling variant: overhead proportional to the IT draw.
      const double it_power = n * p_idle + variable;
      return Watts{params_.pue * it_power + n * params_.epsilon_watts};
    }
    const double fixed = n * (p_idle + (params_.pue - 1.0) * p_peak);
    return Watts{fixed + variable + n * params_.epsilon_watts};
  }

  /// Energy consumed over `duration` at constant utilization.
  [[nodiscard]] MegawattHours energy(double utilization, int servers,
                                     Hours duration) const {
    if (duration.value() < 0.0) negative_duration();
    return power(utilization, servers) * duration;
  }

  /// P(0)/P(1): 1.0 means fully inelastic (idle == peak), 0 means ideal
  /// energy-proportional clusters.
  [[nodiscard]] double inelasticity() const;

  [[nodiscard]] const EnergyModelParams& params() const noexcept { return params_; }

 private:
  EnergyModelParams params_;

  [[noreturn]] static void negative_servers();
  [[noreturn]] static void negative_duration();
};

/// A named (idle%, PUE) scenario from the paper's Fig 15 x-axis.
struct ElasticityScenario {
  std::string_view label;
  double idle_fraction;
  double pue;
};

/// The seven scenarios of Fig 15, in plot order: (0%,1.0) (0%,1.1)
/// (25%,1.3) (33%,1.3) (33%,1.7) (65%,1.3) (65%,2.0).
[[nodiscard]] std::span<const ElasticityScenario> fig15_scenarios() noexcept;

/// Named presets used in the prose (§6.1).
[[nodiscard]] EnergyModelParams fully_proportional_params() noexcept;  // (0%, 1.0)
[[nodiscard]] EnergyModelParams optimistic_future_params() noexcept;   // (0%, 1.1)
[[nodiscard]] EnergyModelParams google_params() noexcept;              // (65%, 1.3)

}  // namespace cebis::energy

#endif  // CEBIS_ENERGY_ENERGY_MODEL_H
