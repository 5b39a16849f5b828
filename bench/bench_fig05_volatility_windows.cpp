// Fig 5: standard deviation of window-averaged prices, NYC hub, Q1 2009,
// real-time vs day-ahead markets. Paper values: RT 28.5/24.8/21.9/18.1/
// 15.6 for 5min/1h/3h/12h/24h; DA N/A/20.0/19.4/17.1/16.0.

#include "bench_common.h"
#include "market/calibration.h"
#include "market/market_simulator.h"
#include "stats/descriptive.h"
#include "stats/timeseries.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  bench::header("Figure 5",
                "Std-dev of window-averaged NYC prices, Q1 2009 (paper "
                "values in brackets)");

  const market::MarketSimulator sim(seed);
  const market::PriceSet prices = sim.generate(study_period());
  const HubId nyc = market::HubRegistry::instance().by_code("NYC");
  const Period q1{hour_at(CivilDate{2009, 1, 1}), hour_at(CivilDate{2009, 4, 1})};

  const auto rt = prices.rt[nyc.index()].slice(q1);
  const auto da = prices.da[nyc.index()].slice(q1);
  const market::HourlySeries rt_series(q1, std::vector<double>(rt.begin(), rt.end()));
  const auto fm = sim.sub_hourly_series(nyc, rt_series, 12);

  io::Table table({"window", "RT sigma", "[paper]", "DA sigma", "[paper]"});
  io::CsvWriter csv(bench::csv_path("fig05_volatility_windows"));
  csv.row({"window_hours", "rt_sigma", "da_sigma", "paper_rt", "paper_da"});

  for (const auto& target : market::fig5_targets()) {
    double rt_sigma;
    double da_sigma = -1.0;
    std::string label;
    if (target.window_hours == 0) {
      rt_sigma = stats::stddev(fm);  // raw 5-minute series
      label = "5 min";
    } else {
      const auto w = static_cast<std::size_t>(target.window_hours);
      rt_sigma = stats::stddev(stats::window_average(rt, w));
      da_sigma = stats::stddev(stats::window_average(da, w));
      label = std::to_string(target.window_hours) + " hr";
    }
    char rt_s[32];
    char da_s[32];
    char rt_p[32];
    char da_p[32];
    std::snprintf(rt_s, sizeof(rt_s), "%.1f", rt_sigma);
    std::snprintf(rt_p, sizeof(rt_p), "[%.1f]", target.rt_sigma);
    if (da_sigma >= 0.0) {
      std::snprintf(da_s, sizeof(da_s), "%.1f", da_sigma);
      std::snprintf(da_p, sizeof(da_p), "[%.1f]", target.da_sigma);
    } else {
      std::snprintf(da_s, sizeof(da_s), "N/A");
      std::snprintf(da_p, sizeof(da_p), "[N/A]");
    }
    table.add_row({label, rt_s, rt_p, da_s, da_p});
    csv.row({std::to_string(target.window_hours), io::format_number(rt_sigma, 2),
             da_sigma >= 0 ? io::format_number(da_sigma, 2) : "",
             io::format_number(target.rt_sigma, 2),
             target.window_hours == 0 ? "" : io::format_number(target.da_sigma, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Shape check: RT sigma decreases with window size and exceeds "
              "DA at short windows.\n");
  std::printf("CSV: %s\n", bench::csv_path("fig05_volatility_windows").c_str());
  return 0;
}
