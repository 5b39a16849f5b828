// Synthetic Akamai-like trace: Fig 14 calibration (peaks, diurnal swing,
// holiday dip) and determinism.

#include <gtest/gtest.h>

#include <algorithm>

#include "test_support.h"
#include "traffic/demand_model.h"
#include "traffic/trace_generator.h"

namespace cebis::traffic {
namespace {

class TraceGeneratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new TrafficTrace(TraceGenerator(2010).generate(trace_period()));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static TrafficTrace* trace_;
};

TrafficTrace* TraceGeneratorTest::trace_ = nullptr;

TEST_F(TraceGeneratorTest, UsPeakCalibrated) {
  double peak = 0.0;
  for (std::int64_t s = 0; s < trace_->steps(); ++s) {
    peak = std::max(peak, trace_->us_total(s).value());
  }
  // Fig 14: about 1.25M hits/sec from the US.
  EXPECT_NEAR(peak, 1.25e6, 1e3);
}

TEST_F(TraceGeneratorTest, GlobalPeakAboveTwoMillion) {
  double peak = 0.0;
  for (std::int64_t s = 0; s < trace_->steps(); ++s) {
    peak = std::max(peak, trace_->global_total(s).value());
  }
  EXPECT_GT(peak, 2.0e6);
  EXPECT_LT(peak, 3.0e6);
}

TEST_F(TraceGeneratorTest, DiurnalSwing) {
  // Daily max should be well above daily min (client activity pattern).
  for (int day = 0; day < 3; ++day) {
    double lo = 1e18;
    double hi = 0.0;
    for (std::int64_t s = day * 288; s < (day + 1) * 288; ++s) {
      const double v = trace_->us_total(s).value();
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_GT(hi / lo, 1.7) << "day " << day;
  }
}

TEST_F(TraceGeneratorTest, HolidayDipVisible) {
  // Average of Dec 25 must sit below the average of Dec 18 (both are
  // same weekday: Thursday).
  auto day_avg = [&](const CivilDate& date) {
    const std::int64_t start =
        (hour_at(date) - trace_period().begin) * kStepsPerHour;
    double sum = 0.0;
    for (std::int64_t s = start; s < start + 288; ++s) {
      sum += trace_->us_total(s).value();
    }
    return sum / 288.0;
  };
  EXPECT_LT(day_avg(CivilDate{2008, 12, 25}), 0.85 * day_avg(CivilDate{2008, 12, 18}));
}

TEST_F(TraceGeneratorTest, AllSamplesNonNegative) {
  for (std::int64_t s = 0; s < trace_->steps(); s += 17) {
    for (std::size_t i = 0; i < trace_->state_count(); ++i) {
      EXPECT_GE(trace_->hits(s, StateId{static_cast<std::int32_t>(i)}).value(), 0.0);
    }
  }
}

TEST_F(TraceGeneratorTest, PopulousStatesCarryMoreTraffic) {
  const auto& states = geo::StateRegistry::instance();
  double ca = 0.0;
  double wy = 0.0;
  for (std::int64_t s = 0; s < trace_->steps(); s += 12) {
    ca += trace_->hits(s, states.by_code("CA")).value();
    wy += trace_->hits(s, states.by_code("WY")).value();
  }
  EXPECT_GT(ca, 20.0 * wy);
}

TEST(TraceGenerator, Deterministic) {
  const Period p{trace_period().begin, trace_period().begin + 24};
  const TrafficTrace a = TraceGenerator(5).generate(p);
  const TrafficTrace b = TraceGenerator(5).generate(p);
  const TrafficTrace c = TraceGenerator(6).generate(p);
  int diff_seed = 0;
  for (std::int64_t s = 0; s < a.steps(); s += 7) {
    EXPECT_DOUBLE_EQ(a.us_total(s).value(), b.us_total(s).value());
    if (a.us_total(s).value() != c.us_total(s).value()) ++diff_seed;
  }
  EXPECT_GT(diff_seed, 10);
}

/// Digest of every state sample and each step's global total (which
/// carries the world aggregates).
std::uint64_t digest(const TrafficTrace& trace) {
  test::BitDigest d;
  for (std::int64_t s = 0; s < trace.steps(); ++s) {
    for (const double v : trace.state_row(s)) d.add(v);
    d.add(trace.global_total(s).value());
  }
  return d.value;
}

TEST(TraceGenerator, GoldenDigests) {
  // Captured from the generator as it was before its draws and its
  // fan-out were rewritten: every output bit must stay the same.
  EXPECT_EQ(digest(TraceGenerator(2009).generate(trace_period())),
            0xe3cbffea3bb9d478ULL);
  EXPECT_EQ(digest(TraceGenerator(42).generate(trace_period())),
            0x299ac4225a62a0b4ULL);
}

TEST(DemandModel, ClientDiurnalShape) {
  // Overnight trough, evening peak.
  EXPECT_LT(client_diurnal(3), 0.4);
  EXPECT_DOUBLE_EQ(client_diurnal(20), 1.0);
  EXPECT_GT(client_diurnal(20), client_diurnal(10));
  EXPECT_DOUBLE_EQ(client_diurnal(24), client_diurnal(0));
}

TEST(DemandModel, WeeklyAndHoliday) {
  EXPECT_LT(client_weekly(Weekday::kSaturday), 1.0);
  EXPECT_DOUBLE_EQ(client_weekly(Weekday::kTuesday), 1.0);
  EXPECT_LT(holiday_factor(CivilDate{2008, 12, 25}), 0.8);
  EXPECT_LT(holiday_factor(CivilDate{2009, 1, 1}), 0.85);
  EXPECT_DOUBLE_EQ(holiday_factor(CivilDate{2008, 12, 18}), 1.0);
}

}  // namespace
}  // namespace cebis::traffic
