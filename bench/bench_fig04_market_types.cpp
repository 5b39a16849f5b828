// Fig 4: price variation across market types at the New York City hub -
// real-time 5-minute, real-time hourly, and day-ahead hourly prices over
// two ten-day windows (Feb and Mar 2009).

#include "bench_common.h"
#include "market/market_simulator.h"
#include "stats/descriptive.h"

int main(int argc, char** argv) {
  using namespace cebis;
  const std::uint64_t seed = bench::seed_from_args(argc, argv);
  bench::header("Figure 4",
                "RT 5-min vs RT hourly vs day-ahead hourly, NYC hub, two "
                "ten-day windows");

  const market::MarketSimulator sim(seed);
  const market::PriceSet prices = sim.generate(study_period());
  const HubId nyc = market::HubRegistry::instance().by_code("NYC");

  const Period windows[] = {
      {hour_at(CivilDate{2009, 2, 10}), hour_at(CivilDate{2009, 2, 20})},
      {hour_at(CivilDate{2009, 3, 3}), hour_at(CivilDate{2009, 3, 13})},
  };

  io::CsvWriter csv(bench::csv_path("fig04_market_types"));
  csv.row({"window", "hour", "rt_hourly", "day_ahead", "rt_5min_mean",
           "rt_5min_min", "rt_5min_max"});

  int w = 0;
  for (const Period& window : windows) {
    ++w;
    const auto rt = prices.rt[nyc.index()].slice(window);
    const auto da = prices.da[nyc.index()].slice(window);
    const market::HourlySeries rt_series(
        window, std::vector<double>(rt.begin(), rt.end()));
    const auto fm = sim.sub_hourly_series(nyc, rt_series, 12);

    double rt_sigma = stats::stddev(rt);
    double da_sigma = stats::stddev(da);
    double fm_sigma = stats::stddev(fm);
    std::printf("window %d (%s): sigma RT-5min %.1f > RT-hourly %.1f vs "
                "day-ahead %.1f  [paper: RT more volatile than DA]\n",
                w, hour_label(window.begin).c_str(), fm_sigma, rt_sigma,
                da_sigma);

    for (std::size_t h = 0; h < rt.size(); ++h) {
      double lo = 1e18;
      double hi = -1e18;
      double sum = 0.0;
      for (int i = 0; i < 12; ++i) {
        const double v = fm[h * 12 + static_cast<std::size_t>(i)];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
      }
      csv.row({std::to_string(w), hour_label(window.begin + static_cast<HourIndex>(h)),
               io::format_number(rt[h], 2), io::format_number(da[h], 2),
               io::format_number(sum / 12.0, 2), io::format_number(lo, 2),
               io::format_number(hi, 2)});
    }
  }
  std::printf("CSV: %s\n", bench::csv_path("fig04_market_types").c_str());
  return 0;
}
