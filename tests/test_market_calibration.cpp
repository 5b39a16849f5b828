// Statistical calibration of the synthetic market against the paper's
// published statistics (§3, Figs 3 and 5-13). Bands are deliberately
// loose: the goal is the *shape* - orderings, correlations structure,
// tail behaviour - not digit-for-digit reproduction of a proprietary
// data set. EXPERIMENTS.md records the measured values next to the
// paper's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "market/calibration.h"
#include "market/market_simulator.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/percentile.h"
#include "stats/timeseries.h"
#include "test_support.h"

namespace cebis::market {
namespace {

/// Shared 39-month price history (generation takes ~1s; share it).
class Calibration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim_ = new MarketSimulator(2009);
    prices_ = new PriceSet(sim_->generate(study_period()));
  }
  static void TearDownTestSuite() {
    delete prices_;
    delete sim_;
    prices_ = nullptr;
    sim_ = nullptr;
  }

  static const HubRegistry& hubs() { return HubRegistry::instance(); }
  static MarketSimulator* sim_;
  static PriceSet* prices_;
};

MarketSimulator* Calibration::sim_ = nullptr;
PriceSet* Calibration::prices_ = nullptr;

// --- Fig 6: per-hub trimmed statistics ------------------------------------

TEST_F(Calibration, Fig6MeansTrackPaper) {
  for (const auto& t : fig6_targets()) {
    const auto s = measure_hub(*prices_, hubs(), t.hub_code);
    EXPECT_NEAR(s.mean, t.mean, 0.15 * t.mean) << t.hub_code;
  }
}

TEST_F(Calibration, Fig6OrderingPreserved) {
  // Chicago cheapest ... NYC most expensive, in the paper's order.
  double prev = 0.0;
  for (const auto& t : fig6_targets()) {
    const auto s = measure_hub(*prices_, hubs(), t.hub_code);
    EXPECT_GT(s.mean, prev) << t.hub_code;
    prev = s.mean;
  }
}

TEST_F(Calibration, Fig6DispersionBands) {
  for (const auto& t : fig6_targets()) {
    const auto s = measure_hub(*prices_, hubs(), t.hub_code);
    EXPECT_GT(s.stddev, 0.5 * t.stddev) << t.hub_code;
    EXPECT_LT(s.stddev, 1.5 * t.stddev) << t.hub_code;
    // Heavier than normal tails everywhere.
    EXPECT_GT(s.kurtosis, 3.2) << t.hub_code;
  }
}

// --- Fig 7: hour-to-hour changes -------------------------------------------

TEST_F(Calibration, Fig7ChangeDistributions) {
  for (const auto& t : fig7_targets()) {
    const ChangeStats c = measure_changes(*prices_, hubs(), t.hub_code);
    EXPECT_NEAR(c.summary.mean, 0.0, 0.5) << t.hub_code;  // zero-mean
    EXPECT_GT(c.summary.stddev, 0.4 * t.sigma) << t.hub_code;
    EXPECT_LT(c.summary.stddev, 1.4 * t.sigma) << t.hub_code;
    // Very heavy tails (paper: 17.8 / 33.3; exact kurtosis is sample-max
    // driven, so only a floor is asserted).
    EXPECT_GT(c.summary.kurtosis, 8.0) << t.hub_code;
    // Bulk mass within +/- $20 and $40.
    EXPECT_NEAR(c.frac_within_20, t.frac_within_20, 0.13) << t.hub_code;
    EXPECT_NEAR(c.frac_within_40, t.frac_within_40, 0.08) << t.hub_code;
  }
}

TEST_F(Calibration, Fig7TwentyDollarStepsAreCommon) {
  // §3.1: "the price per MWh changed hourly by $20 or more roughly 20%
  // of the time" (at those hubs).
  for (const auto& t : fig7_targets()) {
    const ChangeStats c = measure_changes(*prices_, hubs(), t.hub_code);
    const double frac_20_or_more = 1.0 - c.frac_within_20;
    EXPECT_GT(frac_20_or_more, 0.05) << t.hub_code;
    EXPECT_LT(frac_20_or_more, 0.40) << t.hub_code;
  }
}

// --- Fig 8: geographic correlation -----------------------------------------

TEST_F(Calibration, Fig8CrossRtoNeverHighlyCorrelated) {
  // "locations in different regional markets are never highly
  // correlated": every cross-RTO pair below 0.6.
  const auto pairs = pairwise_correlations(*prices_, hubs());
  EXPECT_EQ(pairs.size(), 406u);
  for (const auto& p : pairs) {
    if (!p.same_rto) {
      EXPECT_LT(p.correlation, 0.6) << p.hub_a << "-" << p.hub_b;
    }
    EXPECT_GE(p.correlation, -0.05) << "no negative pairs (paper §3.2)";
  }
}

TEST_F(Calibration, Fig8SameRtoMostlyAbove06) {
  const auto pairs = pairwise_correlations(*prices_, hubs());
  int same = 0;
  int above = 0;
  for (const auto& p : pairs) {
    if (p.same_rto) {
      ++same;
      if (p.correlation > 0.6) ++above;
    }
  }
  EXPECT_EQ(same, 63);
  EXPECT_GT(static_cast<double>(above) / same, 0.85);
}

TEST_F(Calibration, Fig8CorrelationDecaysWithDistance) {
  const auto pairs = pairwise_correlations(*prices_, hubs());
  double near_sum = 0.0;
  int near_n = 0;
  double far_sum = 0.0;
  int far_n = 0;
  for (const auto& p : pairs) {
    if (p.distance_km < 400.0) {
      near_sum += p.correlation;
      ++near_n;
    } else if (p.distance_km > 2000.0) {
      far_sum += p.correlation;
      ++far_n;
    }
  }
  ASSERT_GT(near_n, 0);
  ASSERT_GT(far_n, 0);
  EXPECT_GT(near_sum / near_n, far_sum / far_n + 0.15);
}

TEST_F(Calibration, Fig8CaliforniaPairStronglyCoupled) {
  // Paper: LA-PaloAlto coefficient 0.94 despite ~560 km.
  const double r = stats::pearson(
      prices_->rt[hubs().by_code("NP15").index()].values(),
      prices_->rt[hubs().by_code("SP15").index()].values());
  EXPECT_GT(r, 0.75);
}

TEST_F(Calibration, Fig8MutualInformationSeparatesRtos) {
  // Footnote 8: MI divides same-RTO from cross-RTO pairs more cleanly.
  const HubId np15 = hubs().by_code("NP15");
  const HubId sp15 = hubs().by_code("SP15");
  const HubId chi = hubs().by_code("CHI");
  const double mi_same =
      stats::mutual_information(prices_->rt[np15.index()].values(),
                                prices_->rt[sp15.index()].values());
  const double mi_cross =
      stats::mutual_information(prices_->rt[np15.index()].values(),
                                prices_->rt[chi.index()].values());
  EXPECT_GT(mi_same, mi_cross);
}

// --- Fig 10: differential distributions ------------------------------------

TEST_F(Calibration, Fig10BalancedPairsAreZeroMeanHighVariance) {
  // PaloAlto-Virginia: |mean| small, sigma large.
  const auto d = differential(*prices_, hubs(), "NP15", "DOM");
  const auto s = stats::summarize(d);
  EXPECT_LT(std::abs(s.mean), 10.0);
  EXPECT_GT(s.stddev, 30.0);
}

TEST_F(Calibration, Fig10TexasPairHasExtremeTails) {
  // Austin-Virginia: kappa = 466 in the paper - scarcity events.
  const auto d = differential(*prices_, hubs(), "ERCOT-S", "DOM");
  const auto s = stats::summarize(d);
  EXPECT_LT(std::abs(s.mean), 12.0);
  EXPECT_GT(s.stddev, 40.0);
  EXPECT_GT(s.kurtosis, 30.0);
  EXPECT_GT(s.max, 500.0);  // spikes reach near four figures
}

TEST_F(Calibration, Fig10BostonNycSkewedButExploitable) {
  // Boston cheaper on average, but NYC is less expensive a meaningful
  // fraction of the time (paper: 36%, >$10 gap 18% of the time).
  const auto d = differential(*prices_, hubs(), "MA-BOS", "NYC");
  const auto s = stats::summarize(d);
  EXPECT_LT(s.mean, -5.0);
  EXPECT_GT(s.mean, -25.0);
  double nyc_cheaper = 0.0;
  double nyc_much_cheaper = 0.0;
  for (double v : d) {
    if (v > 0.0) nyc_cheaper += 1.0;
    if (v > 10.0) nyc_much_cheaper += 1.0;
  }
  nyc_cheaper /= static_cast<double>(d.size());
  nyc_much_cheaper /= static_cast<double>(d.size());
  EXPECT_GT(nyc_cheaper, 0.15);
  EXPECT_LT(nyc_cheaper, 0.50);
  EXPECT_GT(nyc_much_cheaper, 0.05);
}

TEST_F(Calibration, Fig10ChicagoVirginiaOneSided) {
  // Chicago strictly better: VA cheaper rarely, and rarely by much.
  const auto d = differential(*prices_, hubs(), "CHI", "DOM");
  const auto s = stats::summarize(d);
  EXPECT_NEAR(s.mean, -17.2, 6.0);
  double va_cheaper = 0.0;
  double va_much_cheaper = 0.0;
  for (double v : d) {
    if (v > 0.0) va_cheaper += 1.0;
    if (v > 10.0) va_much_cheaper += 1.0;
  }
  va_cheaper /= static_cast<double>(d.size());
  va_much_cheaper /= static_cast<double>(d.size());
  EXPECT_LT(va_cheaper, 0.35);
  EXPECT_LT(va_much_cheaper, 0.15);
}

TEST_F(Calibration, Fig10MarketBoundaryDisperses) {
  // Chicago-Peoria: near-equal means, but the PJM/MISO boundary keeps
  // the differential wide relative to the tiny mean gap.
  const auto d = differential(*prices_, hubs(), "CHI", "IL");
  const auto s = stats::summarize(d);
  EXPECT_LT(std::abs(s.mean), 10.0);
  EXPECT_GT(s.stddev, 15.0);
}

// --- Fig 11 / 12: evolution in time and time-of-day ------------------------

TEST_F(Calibration, Fig11MonthlyDifferentialsDrift) {
  const auto d = differential(*prices_, hubs(), "NP15", "DOM");
  const auto groups = stats::grouped_quartiles(
      d, [](std::size_t i) { return month_index(static_cast<HourIndex>(i)); }, 39);
  double lo = 1e9;
  double hi = -1e9;
  for (const auto& g : groups) {
    ASSERT_GT(g.count, 0u);
    lo = std::min(lo, g.q.q50);
    hi = std::max(hi, g.q.q50);
  }
  // Monthly medians move around (paper: asymmetries persist for months,
  // then reverse).
  EXPECT_GT(hi - lo, 10.0);
  EXPECT_GT(hi, 0.0);
  EXPECT_LT(lo, 0.0);
}

TEST_F(Calibration, Fig12HourOfDayStructure) {
  // PaloAlto-Virginia differential depends strongly on hour of day
  // (different time zones => non-overlapping peaks).
  const auto d = differential(*prices_, hubs(), "NP15", "DOM");
  const auto groups = stats::grouped_quartiles(
      d,
      [](std::size_t i) {
        return local_hour_of_day(static_cast<HourIndex>(i), -5);  // EST
      },
      24);
  double lo = 1e9;
  double hi = -1e9;
  for (const auto& g : groups) {
    lo = std::min(lo, g.q.q50);
    hi = std::max(hi, g.q.q50);
  }
  EXPECT_GT(hi - lo, 8.0);
}

// --- Fig 13: differential durations ----------------------------------------

TEST_F(Calibration, Fig13ShortDifferentialsDominate) {
  const auto d = differential(*prices_, hubs(), "NP15", "DOM");
  const auto runs = stats::differential_runs(d, 5.0);
  ASSERT_FALSE(runs.empty());
  const auto frac = stats::duration_time_fractions(runs, 37);
  double short_mass = frac[0] + frac[1] + frac[2];          // <= 3 h
  double day_plus = 0.0;
  for (std::size_t i = 23; i < frac.size(); ++i) day_plus += frac[i];
  EXPECT_GT(short_mass, day_plus);       // short differentials dominate
  EXPECT_LT(day_plus, 0.25);             // >24h runs are rare
  EXPECT_GT(short_mass, 0.25);
}

// --- Fig 5: market-type volatility by averaging window ---------------------

TEST_F(Calibration, Fig5WindowSigmas) {
  const HubId nyc = hubs().by_code("NYC");
  const Period q1_2009{hour_at(CivilDate{2009, 1, 1}), hour_at(CivilDate{2009, 4, 1})};
  const auto rt = prices_->rt[nyc.index()].slice(q1_2009);
  const auto da = prices_->da[nyc.index()].slice(q1_2009);

  double prev_rt = 1e18;
  for (int w : {1, 3, 12, 24}) {
    const double s =
        stats::stddev(stats::window_average(rt, static_cast<std::size_t>(w)));
    EXPECT_LT(s, prev_rt + test::kNumericTol) << "window " << w;  // monotone decreasing
    prev_rt = s;
  }
  const double rt1 = stats::stddev(stats::window_average(rt, 1));
  const double da1 = stats::stddev(stats::window_average(da, 1));
  const double rt24 = stats::stddev(stats::window_average(rt, 24));
  const double da24 = stats::stddev(stats::window_average(da, 24));
  // RT more variable than DA at short windows; gap closes by 24h.
  EXPECT_GT(rt1, da1);
  EXPECT_LT(std::abs(rt24 - da24) / rt24, 0.5);

  // The 5-minute series is the most variable of all.
  HourlySeries rt_series(q1_2009, std::vector<double>(rt.begin(), rt.end()));
  const auto fm = sim_->sub_hourly_series(nyc, rt_series, 12);
  const double fm_sigma = stats::stddev(fm);
  EXPECT_GE(fm_sigma, rt1 * 0.95);
}

// --- Fig 3: daily day-ahead peak envelopes ---------------------------------

TEST_F(Calibration, Fig3GasHumpAndNorthwestImmunity) {
  const HubId houston = hubs().by_code("ERCOT-H");
  const HubId midc = hubs().by_code("MID-C");
  const DailySeries tx = sim_->daily_day_ahead_peak(*prices_, houston);
  const DailySeries nw = sim_->daily_day_ahead_peak(*prices_, midc);

  auto year_mean = [](const DailySeries& s, std::int64_t lo_day,
                      std::int64_t hi_day) {
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      const auto day = s.first_day + static_cast<std::int64_t>(i);
      if (day >= lo_day && day < hi_day) {
        sum += s.values[i];
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const std::int64_t d2006 = day_index(hour_at(CivilDate{2006, 1, 1}));
  const std::int64_t d2007 = day_index(hour_at(CivilDate{2007, 1, 1}));
  const std::int64_t d2008_06 = day_index(hour_at(CivilDate{2008, 6, 1}));
  const std::int64_t d2008_09 = day_index(hour_at(CivilDate{2008, 9, 1}));

  // 2008 summer elevated vs 2006 for the gas-heavy hub...
  EXPECT_GT(year_mean(tx, d2008_06, d2008_09), 1.3 * year_mean(tx, d2006, d2007));
  // ...but not for the hydro Northwest.
  EXPECT_LT(year_mean(nw, d2008_06, d2008_09), 1.25 * year_mean(nw, d2006, d2007));
}

TEST_F(Calibration, Fig3NorthwestAprilDip) {
  const HubId midc = hubs().by_code("MID-C");
  const DailySeries nw = sim_->daily_day_ahead_peak(*prices_, midc);
  double april_sum = 0.0;
  int april_n = 0;
  double rest_sum = 0.0;
  int rest_n = 0;
  for (std::size_t i = 0; i < nw.values.size(); ++i) {
    const auto day = nw.first_day + static_cast<std::int64_t>(i);
    const CivilDate d = civil_from_days(day + epoch_days());
    if (d.month == 4) {
      april_sum += nw.values[i];
      ++april_n;
    } else {
      rest_sum += nw.values[i];
      ++rest_n;
    }
  }
  EXPECT_LT(april_sum / april_n, 0.85 * (rest_sum / rest_n));
}

}  // namespace
}  // namespace cebis::market
