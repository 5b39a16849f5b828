// Ablation (paper §8 "Implementing Joint Optimization"): hard distance
// threshold vs a soft distance penalty in the objective. Both trace a
// cost-vs-mean-distance frontier; an integrated traffic-engineering
// framework would use the soft form. Both schemes are registry routers,
// so the whole frontier is one batched sweep.

#include <vector>

#include "bench_common.h"
#include "core/joint_router.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  bench::header("Ablation: joint objective vs hard threshold",
                "Cost vs mean client-server distance frontiers, 24-day "
                "trace, (0%,1.1), relax 95/5");

  const core::Fixture& fx = bench::fixture(seed);
  const std::vector<double> thresholds = {0.0, 500.0, 1000.0, 1500.0, 2500.0};
  const std::vector<double> lambdas = {0.2, 0.05, 0.02, 0.01, 0.005, 0.0};

  std::vector<core::ScenarioSpec> specs;
  const core::ScenarioSpec base{
      .router = "baseline",
      .energy = energy::optimistic_future_params(),
      .workload = core::WorkloadKind::kTrace24Day,
      .enforce_p95 = false,
  };
  specs.push_back(base);
  for (const double km : thresholds) {
    core::ScenarioSpec s = base;
    s.router = "price-aware";
    s.config = core::PriceAwareConfig{.distance_threshold = Km{km}};
    specs.push_back(s);
  }
  for (const double lambda : lambdas) {
    core::ScenarioSpec s = base;
    s.router = "joint-objective";
    s.config = core::JointObjectiveConfig{.lambda_usd_per_mwh_km = lambda};
    specs.push_back(s);
  }
  const std::vector<core::RunResult> runs = core::run_scenarios(fx, specs);
  const double base_cost = runs[0].total_cost.value();

  io::Table table({"scheme", "knob", "normalized cost", "mean dist (km)"});
  io::CsvWriter csv(bench::csv_path("ablation_joint_objective"));
  csv.row({"scheme", "knob", "normalized_cost", "mean_distance_km"});

  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const core::RunResult& r = runs[1 + i];
    char k[16], c[16], d[16];
    std::snprintf(k, sizeof(k), "theta=%.0f", thresholds[i]);
    std::snprintf(c, sizeof(c), "%.3f", r.total_cost.value() / base_cost);
    std::snprintf(d, sizeof(d), "%.0f", r.mean_distance_km);
    table.add_row({"hard threshold", k, c, d});
    csv.row({"threshold", io::format_number(thresholds[i], 0),
             io::format_number(r.total_cost.value() / base_cost, 4),
             io::format_number(r.mean_distance_km, 1)});
  }
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    const core::RunResult& r = runs[1 + thresholds.size() + i];
    char k[20], c[16], d[16];
    std::snprintf(k, sizeof(k), "lambda=%.3f", lambdas[i]);
    std::snprintf(c, sizeof(c), "%.3f", r.total_cost.value() / base_cost);
    std::snprintf(d, sizeof(d), "%.0f", r.mean_distance_km);
    table.add_row({"soft penalty", k, c, d});
    csv.row({"joint", io::format_number(lambdas[i], 4),
             io::format_number(r.total_cost.value() / base_cost, 4),
             io::format_number(r.mean_distance_km, 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: both knobs sweep the same frontier ends (closest-cluster to\n"
      "pure price chasing). At matched mean distance the soft penalty tends\n"
      "to meet or beat the hard threshold: it spends distance only where a\n"
      "price differential pays for it, which is how an integrated\n"
      "traffic-engineering framework (paper §8) would consume price data.\n");
  std::printf("CSV: %s\n", bench::csv_path("ablation_joint_objective").c_str());
  return 0;
}
