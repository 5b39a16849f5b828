// The §5.1 cluster power model: formula endpoints, elasticity, and the
// Fig 15 scenario presets.

#include <gtest/gtest.h>

#include <stdexcept>

#include "energy/energy_model.h"
#include "test_support.h"

namespace cebis::energy {
namespace {

TEST(EnergyModel, FormulaEndpoints) {
  // P(u) = n*(Pidle + (PUE-1)*Ppeak) + n*(Ppeak-Pidle)*(2u - u^1.4)
  EnergyModelParams p;
  p.peak_watts = 200.0;
  p.idle_fraction = 0.5;  // Pidle = 100
  p.pue = 1.5;
  const ClusterEnergyModel model(p);
  // u=0: fixed only = n*(100 + 0.5*200) = 200 W per server.
  EXPECT_DOUBLE_EQ(model.power(0.0, 1).value(), 200.0);
  EXPECT_DOUBLE_EQ(model.power(0.0, 10).value(), 2000.0);
  // u=1: 2*1 - 1^1.4 = 1, so fixed + (Ppeak-Pidle) = 300 W per server.
  EXPECT_DOUBLE_EQ(model.power(1.0, 1).value(), 300.0);
}

TEST(EnergyModel, VariablePartIsConcave) {
  // 2u - u^1.4 rises steeply at low utilization (the Google study's
  // empirical curvature): half-load draws more than half the variable
  // power.
  const ClusterEnergyModel model(fully_proportional_params());
  const double p_half = model.power(0.5, 1).value();
  const double p_full = model.power(1.0, 1).value();
  EXPECT_GT(p_half, 0.5 * p_full);
  EXPECT_LT(p_half, p_full);
}

TEST(EnergyModel, MonotoneInUtilization) {
  const ClusterEnergyModel model(google_params());
  double prev = -1.0;
  for (int i = 0; i <= 10; ++i) {
    const double p = model.power(i / 10.0, 100).value();
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(EnergyModel, UtilizationClamped) {
  const ClusterEnergyModel model(google_params());
  EXPECT_DOUBLE_EQ(model.power(-0.5, 1).value(), model.power(0.0, 1).value());
  EXPECT_DOUBLE_EQ(model.power(1.5, 1).value(), model.power(1.0, 1).value());
}

// The prose's two least efficient presets (§6.1), which no figure uses.
constexpr EnergyModelParams kStateOfTheArt{.idle_fraction = 0.65, .pue = 1.7};
constexpr EnergyModelParams kNoPowerManagement{.idle_fraction = 0.95,
                                               .pue = 2.0};

TEST(EnergyModel, Inelasticity) {
  // Fully proportional: P(0) = 0.
  EXPECT_DOUBLE_EQ(ClusterEnergyModel(fully_proportional_params()).inelasticity(),
                   0.0);
  // No power management (95% idle, PUE 2.0): P(0)/P(1) =
  // (0.95 + 1) / (1 + 1) = 0.975.
  EXPECT_NEAR(ClusterEnergyModel(kNoPowerManagement).inelasticity(), 0.975,
              test::kNumericTol);
  // Google-like (65%, 1.3): (0.65 + 0.3) / (1 + 0.3) ~= 0.731.
  EXPECT_NEAR(ClusterEnergyModel(google_params()).inelasticity(), 0.95 / 1.3,
              test::kNumericTol);
}

TEST(EnergyModel, InelasticityOrderingAcrossPresets) {
  const double future = ClusterEnergyModel(optimistic_future_params()).inelasticity();
  const double google = ClusterEnergyModel(google_params()).inelasticity();
  const double sota = ClusterEnergyModel(kStateOfTheArt).inelasticity();
  const double none = ClusterEnergyModel(kNoPowerManagement).inelasticity();
  EXPECT_LT(future, google);
  EXPECT_LT(google, sota);
  EXPECT_LT(sota, none);
}

TEST(EnergyModel, EnergyScalesWithDuration) {
  const ClusterEnergyModel model(google_params());
  const MegawattHours one = model.energy(0.4, 1000, Hours{1.0});
  const MegawattHours five_min = model.energy(0.4, 1000, Hours{1.0 / 12.0});
  EXPECT_NEAR(one.value(), five_min.value() * 12.0, test::kTightTol);
  EXPECT_THROW((void)model.energy(0.4, 10, Hours{-1.0}), std::invalid_argument);
  EXPECT_THROW((void)model.power(0.4, -1), std::invalid_argument);
}

TEST(EnergyModel, ParameterValidation) {
  EnergyModelParams p;
  p.peak_watts = -1.0;
  EXPECT_THROW(ClusterEnergyModel{p}, std::invalid_argument);
  p = EnergyModelParams{};
  p.idle_fraction = 1.5;
  EXPECT_THROW(ClusterEnergyModel{p}, std::invalid_argument);
  p = EnergyModelParams{};
  p.pue = 0.9;
  EXPECT_THROW(ClusterEnergyModel{p}, std::invalid_argument);
  p = EnergyModelParams{};
  p.exponent_r = 0.0;
  EXPECT_THROW(ClusterEnergyModel{p}, std::invalid_argument);
}

TEST(EnergyModel, Fig15ScenarioTable) {
  const auto scenarios = fig15_scenarios();
  ASSERT_EQ(scenarios.size(), 7u);
  EXPECT_EQ(scenarios[0].label, "(0%, 1.0)");
  EXPECT_DOUBLE_EQ(scenarios[0].idle_fraction, 0.0);
  EXPECT_DOUBLE_EQ(scenarios[0].pue, 1.0);
  EXPECT_EQ(scenarios[6].label, "(65%, 2.0)");
  // Inelasticity must be monotone across the scenario order.
  double prev = -1.0;
  for (const auto& s : scenarios) {
    EnergyModelParams p;
    p.idle_fraction = s.idle_fraction;
    p.pue = s.pue;
    const double inel = ClusterEnergyModel(p).inelasticity();
    EXPECT_GE(inel, prev) << s.label;
    prev = inel;
  }
}

/// Property sweep: linearity in server count for all presets.
class EnergyLinearity : public ::testing::TestWithParam<int> {};

TEST_P(EnergyLinearity, PowerLinearInServers) {
  const auto& s = fig15_scenarios()[static_cast<std::size_t>(GetParam())];
  EnergyModelParams p;
  p.idle_fraction = s.idle_fraction;
  p.pue = s.pue;
  const ClusterEnergyModel model(p);
  for (double u : {0.0, 0.3, 0.7, 1.0}) {
    EXPECT_NEAR(model.power(u, 500).value(), 500.0 * model.power(u, 1).value(),
                test::kSumTol);
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, EnergyLinearity, ::testing::Range(0, 7));

}  // namespace
}  // namespace cebis::energy
