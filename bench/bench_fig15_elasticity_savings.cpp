// Fig 15: the headline result - maximum 24-day savings of the
// price-conscious router vs the Akamai-like allocation, across energy
// models (idle%, PUE), with and without the 95/5 bandwidth constraints,
// at a 1500 km distance threshold. One batched sweep: per energy model,
// a baseline run plus the two constrained variants.

#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  bench::header("Figure 15",
                "24-day savings vs energy-model elasticity, 1500 km "
                "threshold (percent of the Akamai-like allocation's cost)");

  const core::Fixture& fx = bench::fixture(seed);
  const auto scenarios = energy::fig15_scenarios();

  std::vector<core::ScenarioSpec> specs;
  for (const auto& scn : scenarios) {
    core::ScenarioSpec base{
        .router = "baseline",
        .workload = core::WorkloadKind::kTrace24Day,
    };
    base.energy.idle_fraction = scn.idle_fraction;
    base.energy.pue = scn.pue;
    specs.push_back(base);
    for (const bool follow : {false, true}) {
      core::ScenarioSpec s = base;
      s.router = "price-aware";
      s.config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}};
      s.enforce_p95 = follow;
      specs.push_back(s);
    }
  }
  const std::vector<core::RunResult> runs = core::run_scenarios(fx, specs);

  io::Table table({"(idle, PUE)", "relax 95/5 (%)", "follow 95/5 (%)"});
  io::CsvWriter csv(bench::csv_path("fig15_elasticity_savings"));
  csv.row({"scenario", "idle_fraction", "pue", "savings_relaxed_pct",
           "savings_followed_pct"});

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& scn = scenarios[i];
    const double relax =
        core::compare(runs[3 * i], runs[3 * i + 1]).savings_percent;
    const double follow =
        core::compare(runs[3 * i], runs[3 * i + 2]).savings_percent;

    char relax_s[16], follow_s[16];
    std::snprintf(relax_s, sizeof(relax_s), "%.1f", relax);
    std::snprintf(follow_s, sizeof(follow_s), "%.1f", follow);
    table.add_row({std::string(scn.label), relax_s, follow_s});
    csv.row({std::string(scn.label), io::format_number(scn.idle_fraction, 2),
             io::format_number(scn.pue, 2), io::format_number(relax, 3),
             io::format_number(follow, 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper shape: fully elastic ~30-40%% relaxed, constraints cut savings\n"
      "to roughly a third; Google-like (65%%, 1.3) drops to ~5%% relaxed and\n"
      "a few percent constrained; savings shrink monotonically with idle/PUE.\n");
  std::printf("CSV: %s\n", bench::csv_path("fig15_elasticity_savings").c_str());
  return 0;
}
