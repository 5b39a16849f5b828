// Extension (§5.2): the paper reacts to hour-old prices ("we use the
// previous hour's price") and Figure 20 shows how savings decay as that
// reaction delay grows. This bench quantifies the opposite direction on
// the sub-hourly axis the RTOs actually publish: how much of the
// 5-minute settlement's volatility becomes routable as the reaction
// delay shrinks below an hour. ScenarioSpec::delay_steps runs the same
// 24-day trace on the true 5-minute market, reacting to the settlement
// N intervals back: 12 steps reproduces the paper's one-hour delay
// byte-for-byte, 1 step reacts to the previous 5-minute print.

#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  bench::header("Extension: price freshness on the 5-minute market",
                "24-day trace, google-like elasticity, 1500 km threshold, "
                "95/5 enforced; 5-minute settlement, routing reacts to the "
                "price delay_steps intervals back");

  const core::Fixture& fx = bench::fixture(seed);

  core::ScenarioSpec routed{
      .router = "price-aware",
      .config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = core::WorkloadKind::kTrace24Day,
      .enforce_p95 = true,
  };
  routed.market_interval_minutes = 5;
  core::ScenarioSpec baseline = routed;
  baseline.router = "baseline";
  baseline.config = std::monostate{};

  io::Table table({"reaction delay", "baseline $", "price-aware $", "saved %",
                   "vs 60 min"});
  bench::TimedCsv csv(bench::csv_path("ext_delay_steps"));
  csv.header({"reaction_delay_min", "baseline_usd", "optimized_usd",
              "saved_pct"});

  // One sweep: the baseline, then one cell per reaction delay.
  std::vector<core::ScenarioSpec> cells;
  cells.push_back(baseline);
  const int delays[] = {12, 6, 3, 1};  // 60, 30, 15, 5 minutes
  for (const int steps : delays) {
    core::ScenarioSpec cell = routed;
    cell.delay_steps = steps;
    cells.push_back(cell);
  }
  const std::vector<core::RunResult> runs = core::run_scenarios(fx, cells);

  const double base_usd = runs[0].total_cost.value();
  double hour_usd = 0.0;
  for (std::size_t i = 0; i < std::size(delays); ++i) {
    const double usd = runs[i + 1].total_cost.value();
    if (i == 0) hour_usd = usd;
    const double saved_pct = 100.0 * (1.0 - usd / base_usd);
    const int minutes = delays[i] * 5;

    char cells_fmt[5][32];
    std::snprintf(cells_fmt[0], sizeof(cells_fmt[0]), "%d min", minutes);
    std::snprintf(cells_fmt[1], sizeof(cells_fmt[1]), "%.0f", base_usd);
    std::snprintf(cells_fmt[2], sizeof(cells_fmt[2]), "%.0f", usd);
    std::snprintf(cells_fmt[3], sizeof(cells_fmt[3]), "%.3f", saved_pct);
    std::snprintf(cells_fmt[4], sizeof(cells_fmt[4]), "%+.0f", hour_usd - usd);
    table.add_row({cells_fmt[0], cells_fmt[1], cells_fmt[2], cells_fmt[3],
                   cells_fmt[4]});
    csv.row({io::format_number(minutes, 0), io::format_number(base_usd, 2),
             io::format_number(usd, 2), io::format_number(saved_pct, 3)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: the 60-minute row is the paper's configuration (delay_steps\n"
      "= 12 reproduces delay_hours = 1 exactly; tests pin the identity).\n"
      "Shrinking the reaction delay lets the router act on intra-hour\n"
      "deviations while they are still live - the AR persistence of the\n"
      "5-minute differential is ~15 minutes, so most of the extra value\n"
      "arrives by the 15-minute row and the last 5-minute step adds only a\n"
      "sliver. The delta column prices the freshness itself: what a faster\n"
      "price feed (not a faster market) is worth under the paper's own\n"
      "routing policy.\n");
  std::printf("CSV: %s\n", bench::csv_path("ext_delay_steps").c_str());
  return 0;
}
