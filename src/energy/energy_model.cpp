#include "energy/energy_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace cebis::energy {

ClusterEnergyModel::ClusterEnergyModel(EnergyModelParams params) : params_(params) {
  if (params_.peak_watts <= 0.0) {
    throw std::invalid_argument("ClusterEnergyModel: peak_watts <= 0");
  }
  if (params_.idle_fraction < 0.0 || params_.idle_fraction > 1.0) {
    throw std::invalid_argument("ClusterEnergyModel: idle_fraction outside [0,1]");
  }
  if (params_.pue < 1.0) {
    throw std::invalid_argument("ClusterEnergyModel: PUE < 1");
  }
  if (params_.exponent_r <= 0.0) {
    throw std::invalid_argument("ClusterEnergyModel: exponent_r <= 0");
  }
}

Watts ClusterEnergyModel::power(double utilization, int servers) const {
  if (servers < 0) throw std::invalid_argument("ClusterEnergyModel::power: servers < 0");
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

MegawattHours ClusterEnergyModel::energy(double utilization, int servers,
                                         Hours duration) const {
  if (duration.value() < 0.0) {
    throw std::invalid_argument("ClusterEnergyModel::energy: negative duration");
  }
  return power(utilization, servers) * duration;
}

double ClusterEnergyModel::inelasticity() const {
  const double p0 = power(0.0, 1).value();
  const double p1 = power(1.0, 1).value();
  return p0 / p1;
}

std::span<const ElasticityScenario> fig15_scenarios() noexcept {
  static constexpr std::array<ElasticityScenario, 7> kScenarios = {{
      {"(0%, 1.0)", 0.00, 1.0},
      {"(0%, 1.1)", 0.00, 1.1},
      {"(25%, 1.3)", 0.25, 1.3},
      {"(33%, 1.3)", 0.33, 1.3},
      {"(33%, 1.7)", 0.33, 1.7},
      {"(65%, 1.3)", 0.65, 1.3},
      {"(65%, 2.0)", 0.65, 2.0},
  }};
  return kScenarios;
}

namespace {

EnergyModelParams with(double idle_fraction, double pue) noexcept {
  EnergyModelParams p;
  p.idle_fraction = idle_fraction;
  p.pue = pue;
  return p;
}

}  // namespace

EnergyModelParams fully_proportional_params() noexcept { return with(0.0, 1.0); }
EnergyModelParams optimistic_future_params() noexcept { return with(0.0, 1.1); }
EnergyModelParams google_params() noexcept { return with(0.65, 1.3); }

}  // namespace cebis::energy
