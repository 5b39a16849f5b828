// Extension (§3.1, first-class): "we restrict ourselves to hourly
// prices, but speculate that the additional volatility in five minute
// prices provides further opportunities."
//
// Unlike bench_ext_five_minute_routing (a hand-rolled loop outside the
// engine, kept as the historical comparison), this bench runs the real
// scenario pipeline at native market resolution: the same 24-day trace
// priced hourly, quarter-hourly and at the RTOs' true 5-minute
// settlement via ScenarioSpec::market_interval_minutes - routing,
// billing, demand metering and the battery peak guard all follow the
// native interval. Two figures per granularity: the price-aware savings
// against the baseline router, and the tariff bill of the same
// price-aware run with a Lyapunov battery behind the meter, under exact
// interval demand metering.

#include <vector>

#include "bench_common.h"
#include "storage/storage_controller.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  bench::header("Extension: first-class five-minute markets",
                "24-day trace, google-like elasticity, 1500 km threshold, "
                "95/5 enforced; storage bills wholesale-indexed energy + "
                "$12/kW-month demand on the native interval");

  const core::Fixture& fx = bench::fixture(seed);

  core::ScenarioSpec routed{
      .router = "price-aware",
      .config = core::PriceAwareConfig{.distance_threshold = Km{1500.0}},
      .energy = energy::google_params(),
      .workload = core::WorkloadKind::kTrace24Day,
      .enforce_p95 = true,
  };
  core::ScenarioSpec stored = routed;
  core::StorageSpec st;
  st.policy = "lyapunov";
  st.battery = storage::battery_for_mean_load(0.2, 4.0);
  st.tariff.demand_usd_per_kw_month = Usd{12.0};
  stored.storage = st;

  io::Table table({"market interval", "baseline $", "price-aware $",
                   "saved %", "storage net $", "net demand $"});
  bench::TimedCsv csv(bench::csv_path("ext_five_minute_market"));
  csv.header({"market_interval_min", "baseline_usd", "optimized_usd",
              "saved_pct", "storage_net_usd", "net_demand_usd"});

  for (const int interval : {60, 15, 5}) {
    routed.market_interval_minutes = interval;
    stored.market_interval_minutes = interval;
    core::ScenarioSpec baseline = routed;
    baseline.router = "baseline";
    baseline.config = std::monostate{};

    // One sweep per granularity: baseline + price-aware share the
    // engine, the storage run adds its observer on top.
    const core::ScenarioSpec cells_spec[] = {baseline, routed, stored};
    const auto runs = core::run_scenarios(fx, cells_spec);
    const double base_usd = runs[0].total_cost.value();
    const double routed_usd = runs[1].total_cost.value();
    const double saved_pct = 100.0 * (1.0 - routed_usd / base_usd);
    const auto& o = runs[2].storage;

    char cells[6][32];
    std::snprintf(cells[0], sizeof(cells[0]), "%d min", interval);
    std::snprintf(cells[1], sizeof(cells[1]), "%.0f", base_usd);
    std::snprintf(cells[2], sizeof(cells[2]), "%.0f", routed_usd);
    std::snprintf(cells[3], sizeof(cells[3]), "%.3f", saved_pct);
    std::snprintf(cells[4], sizeof(cells[4]), "%.0f", o.net_total().value());
    std::snprintf(cells[5], sizeof(cells[5]), "%.0f", o.net_demand.value());
    table.add_row({cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]});
    csv.row({io::format_number(interval, 0),
             io::format_number(base_usd, 2),
             io::format_number(routed_usd, 2),
             io::format_number(saved_pct, 3),
             io::format_number(o.net_total().value(), 2),
             io::format_number(o.net_demand.value(), 2)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: run end-to-end at native settlement, the paper's spatial\n"
      "savings persist essentially unchanged at every granularity: with the\n"
      "conservative one-hour reaction delay the intra-hour deviations (AR\n"
      "persistence ~15 min) are stale before the router sees them, so\n"
      "hourly replay already captures nearly all of the spatial\n"
      "differential - quantifying, rather than confirming, the §3.1\n"
      "speculation (bench_ext_five_minute_routing shows what instant 5-min\n"
      "reaction would add). The storage columns show the flip side of\n"
      "finer settlement: a 5-minute demand meter reads sharper peaks, so\n"
      "the demand line item rises with resolution while the exact interval\n"
      "guard keeps billed net demand at or below raw (no pro-rata sliver).\n");
  std::printf("CSV: %s\n", bench::csv_path("ext_five_minute_market").c_str());
  return 0;
}
