// Fig 18: 39-month electricity cost vs distance threshold with the
// synthetic hour-of-week workload, normalized to the Akamai-like
// allocation. Includes the static "move all servers to the cheapest hub"
// comparison of §6.3 ("Dynamic Beats Static"). The whole grid goes
// through one batched run_scenarios call: engines are shared across the
// sweep (baseline/relaxed, constrained, consolidated-static).

#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  bench::header("Figure 18",
                "Normalized 39-month cost vs distance threshold, (0% idle, "
                "1.1 PUE), synthetic workload");

  const core::Fixture& fx = bench::fixture(seed);
  const std::vector<double> thresholds = {0.0,    500.0,  1000.0,
                                          1500.0, 2000.0, 2500.0};

  std::vector<core::ScenarioSpec> specs;
  const core::ScenarioSpec base{
      .router = "baseline",
      .energy = energy::optimistic_future_params(),
      .workload = core::WorkloadKind::kSynthetic39Month,
  };
  specs.push_back(base);
  {
    core::ScenarioSpec st = base;
    st.router = "static-cheapest";
    specs.push_back(st);
  }
  for (const double km : thresholds) {
    for (const bool follow : {true, false}) {
      core::ScenarioSpec s = base;
      s.router = "price-aware";
      s.config = core::PriceAwareConfig{.distance_threshold = Km{km}};
      s.enforce_p95 = follow;
      specs.push_back(s);
    }
  }

  const std::vector<core::RunResult> runs = core::run_scenarios(fx, specs);
  const double base_cost = runs[0].total_cost.value();
  const double static_cost = runs[1].total_cost.value();

  io::Table table({"threshold (km)", "follow 95/5", "relax 95/5"});
  io::CsvWriter csv(bench::csv_path("fig18_39month_cost"));
  csv.row({"threshold_km", "normalized_cost_follow", "normalized_cost_relax",
           "normalized_cost_static_cheapest"});

  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const double km = thresholds[i];
    const double follow = runs[2 + 2 * i].total_cost.value() / base_cost;
    const double relax = runs[2 + 2 * i + 1].total_cost.value() / base_cost;
    char km_s[16], f_s[16], r_s[16];
    std::snprintf(km_s, sizeof(km_s), "%.0f", km);
    std::snprintf(f_s, sizeof(f_s), "%.3f", follow);
    std::snprintf(r_s, sizeof(r_s), "%.3f", relax);
    table.add_row({km_s, f_s, r_s});
    csv.row({io::format_number(km, 0), io::format_number(follow, 4),
             io::format_number(relax, 4),
             io::format_number(static_cost / base_cost, 4)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Akamai-like routing = 1.000; only-use-cheapest-hub (static "
              "relocation) = %.3f.\n",
              static_cost / base_cost);
  std::printf(
      "Paper shape: 39-month savings exceed the 24-day ones; with relaxed\n"
      "constraints the dynamic solution (paper ~0.55) beats the static\n"
      "cheapest-market relocation (paper ~0.65) by a substantial margin.\n");
  std::printf("CSV: %s\n", bench::csv_path("fig18_39month_cost").c_str());
  return 0;
}
