// Market simulator mechanics: determinism, window invariance, series
// shapes. (Statistical calibration against the paper's figures lives in
// test_market_calibration.cpp.)

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>

#include "market/market_simulator.h"
#include "stats/descriptive.h"
#include "test_support.h"

namespace cebis::market {
namespace {

Period short_period() {
  const HourIndex begin = hour_at(CivilDate{2008, 6, 1});
  return Period{begin, begin + 14 * 24};
}

TEST(MarketSimulator, SeriesShapes) {
  const MarketSimulator sim(1);
  const PriceSet set = sim.generate(short_period());
  const auto& reg = HubRegistry::instance();
  EXPECT_EQ(set.rt.size(), reg.size());
  for (HubId id : reg.hourly_hubs()) {
    EXPECT_EQ(set.rt[id.index()].size(),
              static_cast<std::size_t>(short_period().hours()));
    EXPECT_EQ(set.da[id.index()].size(), set.rt[id.index()].size());
  }
  // The daily-only hub has no hourly series.
  EXPECT_TRUE(set.rt[reg.by_code("MID-C").index()].empty());
}

TEST(MarketSimulator, DeterministicAcrossInstances) {
  const MarketSimulator a(7);
  const MarketSimulator b(7);
  const PriceSet sa = a.generate(short_period());
  const PriceSet sb = b.generate(short_period());
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  const auto va = sa.rt[nyc.index()].values();
  const auto vb = sb.rt[nyc.index()].values();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_DOUBLE_EQ(va[i], vb[i]);
}

TEST(MarketSimulator, SeedChangesSeries) {
  const MarketSimulator a(7);
  const MarketSimulator b(8);
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  const PriceSet sa = a.generate(short_period());
  const PriceSet sb = b.generate(short_period());
  const auto va = sa.rt[nyc.index()].values();
  const auto vb = sb.rt[nyc.index()].values();
  int diff = 0;
  for (std::size_t i = 0; i < va.size(); ++i) diff += va[i] != vb[i] ? 1 : 0;
  EXPECT_GT(diff, static_cast<int>(va.size() / 2));
}

TEST(MarketSimulator, WindowInvariance) {
  // A short window must agree exactly with the same hours inside a
  // longer run - the property that makes 24-day and 39-month scenarios
  // consistent.
  const MarketSimulator sim(3);
  const Period inner = short_period();
  const Period outer{inner.begin - 30 * 24, inner.end + 10 * 24};
  const PriceSet small = sim.generate(inner);
  const PriceSet big = sim.generate(outer);
  const HubId chi = HubRegistry::instance().by_code("CHI");
  for (HourIndex h = inner.begin; h < inner.end; h += 7) {
    EXPECT_DOUBLE_EQ(small.rt_at(chi, h).value(), big.rt_at(chi, h).value());
    EXPECT_DOUBLE_EQ(small.da_at(chi, h).value(), big.da_at(chi, h).value());
  }
}

TEST(MarketSimulator, PricesWithinClamp) {
  const MarketSimulator sim(5);
  const PriceSet set = sim.generate(short_period());
  const auto& params = sim.params();
  for (HubId id : HubRegistry::instance().hourly_hubs()) {
    for (double p : set.rt[id.index()].values()) {
      EXPECT_GE(p, params.price_floor);
      EXPECT_LE(p, params.price_cap);
    }
  }
}

TEST(MarketSimulator, RejectsPrehistoricPeriod) {
  const MarketSimulator sim(1);
  EXPECT_THROW((void)sim.generate(Period{-100, 24}), std::invalid_argument);
}

TEST(MarketSimulator, FiveMinuteSeriesTracksHourly) {
  const MarketSimulator sim(9);
  const PriceSet set = sim.generate(short_period());
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  const auto fm = sim.sub_hourly_series(nyc, set.rt[nyc.index()], 12);
  ASSERT_EQ(fm.size(), set.rt[nyc.index()].size() * 12);
  // Hourly means of the 5-min series stay near the hourly series.
  const auto hourly = set.rt[nyc.index()].values();
  double err = 0.0;
  for (std::size_t h = 0; h < hourly.size(); ++h) {
    double m = 0.0;
    for (int i = 0; i < 12; ++i) m += fm[h * 12 + static_cast<std::size_t>(i)];
    m /= 12.0;
    err += std::abs(m - hourly[h]) / std::max(1.0, std::abs(hourly[h]));
  }
  EXPECT_LT(err / static_cast<double>(hourly.size()), 0.15);
}

TEST(MarketSimulator, DayAheadSmootherThanRealTime) {
  const MarketSimulator sim(11);
  const PriceSet set = sim.generate(short_period());
  const HubId nyc = HubRegistry::instance().by_code("NYC");
  const auto rt_changes = stats::first_differences(set.rt[nyc.index()].values());
  const auto da_changes = stats::first_differences(set.da[nyc.index()].values());
  EXPECT_LT(stats::stddev(da_changes), stats::stddev(rt_changes));
}

TEST(MarketSimulator, DailyDayAheadPeakForHourlyHub) {
  const MarketSimulator sim(13);
  const PriceSet set = sim.generate(short_period());
  const HubId bos = HubRegistry::instance().by_code("MA-BOS");
  const DailySeries daily = sim.daily_day_ahead_peak(set, bos);
  EXPECT_EQ(daily.values.size(), 14u);
  for (double v : daily.values) EXPECT_GT(v, 0.0);
}

TEST(MarketSimulator, NorthwestDailySeries) {
  const MarketSimulator sim(13);
  const PriceSet set = sim.generate(short_period());
  const HubId midc = HubRegistry::instance().by_code("MID-C");
  const DailySeries daily = sim.daily_day_ahead_peak(set, midc);
  EXPECT_EQ(daily.values.size(), 14u);
  for (double v : daily.values) {
    EXPECT_GT(v, 1.0);
    EXPECT_LT(v, 200.0);
  }
}

/// Digest of every bit generate() returns: the period, the sampling and
/// each hub's rt and da series in hub order.
std::uint64_t digest(const PriceSet& set) {
  test::BitDigest d;
  d.add(static_cast<std::uint64_t>(set.period.begin));
  d.add(static_cast<std::uint64_t>(set.period.end));
  d.add(static_cast<std::uint64_t>(set.samples_per_hour));
  for (const auto* side : {&set.rt, &set.da}) {
    for (const PriceSeries& series : *side) {
      d.add(static_cast<std::uint64_t>(series.size()));
      for (const double v : series.values()) d.add(v);
    }
  }
  return d.value;
}

struct GoldenMarket {
  const char* window;
  Period period;
  int samples_per_hour;
  std::uint64_t digest;
};

/// Golden digests of generate(), captured from the generator as it was
/// before its draws and its per-RTO fan-out were rewritten: every output
/// bit must stay the same. The windows that start after the study epoch
/// also pin the draws each unemitted hour makes.
void expect_golden_market(std::uint64_t seed,
                          std::initializer_list<GoldenMarket> cases) {
  const MarketSimulator sim(seed);
  for (const GoldenMarket& c : cases) {
    SCOPED_TRACE(c.window);
    EXPECT_EQ(digest(sim.generate(c.period, c.samples_per_hour)), c.digest);
  }
}

Period hours_1000_to_1100_of_2006() {
  const HourIndex epoch = study_period().begin;
  return Period{epoch + 1000, epoch + 1100};
}

TEST(MarketSimulator, GoldenDigestsSeed2009) {
  expect_golden_market(
      2009, {{"24-day hourly", trace_period(), 1, 0x22af0fad151950a8ULL},
             {"24-day 5-minute", trace_period(), 12, 0xb7736341a0a7f307ULL},
             {"hours 1000-1100", hours_1000_to_1100_of_2006(), 1,
              0x80b11655e3a5f42eULL},
             {"full study hourly", study_period(), 1, 0x7940e624b205f837ULL}});
}

TEST(MarketSimulator, GoldenDigestsSeed42) {
  expect_golden_market(
      42, {{"24-day hourly", trace_period(), 1, 0x8f7fa439a7acbbb6ULL},
           {"24-day 5-minute", trace_period(), 12, 0x5798c9df5bc2d300ULL},
           {"hours 1000-1100", hours_1000_to_1100_of_2006(), 1,
            0x32247191c9b4706eULL},
           {"full study hourly", study_period(), 1, 0x0b6685f59a192b8fULL}});
}

TEST(HourlySeries, SliceAndAccessors) {
  HourlySeries s(Period{10, 14}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.at(10), 1.0);
  EXPECT_DOUBLE_EQ(s.at(13), 4.0);
  EXPECT_THROW((void)s.at(14), std::out_of_range);
  const auto slice = s.slice(Period{11, 13});
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_DOUBLE_EQ(slice[0], 2.0);
  EXPECT_THROW((void)s.slice(Period{9, 12}), std::out_of_range);
  EXPECT_THROW(HourlySeries(Period{0, 2}, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace cebis::market
