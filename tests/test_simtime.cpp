// Calendar math: civil-date round trips, weekday anchoring, month
// indexing, and the study/trace periods the whole reproduction hangs on.

#include <gtest/gtest.h>

#include "base/simtime.h"

namespace cebis {
namespace {

TEST(SimTime, KnownDates) {
  EXPECT_EQ(days_from_civil(CivilDate{1970, 1, 1}), 0);
  EXPECT_EQ(days_from_civil(CivilDate{1970, 1, 2}), 1);
  EXPECT_EQ(days_from_civil(CivilDate{2000, 3, 1}),
            days_from_civil(CivilDate{2000, 2, 29}) + 1);  // leap year
}

TEST(SimTime, EpochIsJan2006) {
  EXPECT_EQ(hour_at(CivilDate{2006, 1, 1}), 0);
  EXPECT_EQ(hour_at(CivilDate{2006, 1, 2}), 24);
  EXPECT_EQ(date_of(0), (CivilDate{2006, 1, 1}));
}

TEST(SimTime, StudyPeriodIs39Months) {
  const Period p = study_period();
  EXPECT_EQ(p.begin, 0);
  // 2006 (365) + 2007 (365) + 2008 (366, leap) + Jan-Mar 2009 (90) days.
  EXPECT_EQ(p.hours(), (365 + 365 + 366 + 90) * 24);
  EXPECT_EQ(p.hours(), 28464);  // the paper's ">28k samples"
}

TEST(SimTime, TracePeriodIs24DaysAtTurnOfYear) {
  const Period p = trace_period();
  EXPECT_EQ(p.hours(), 24 * 24);
  EXPECT_EQ(date_of(p.begin), (CivilDate{2008, 12, 17}));
  EXPECT_EQ(date_of(p.end), (CivilDate{2009, 1, 10}));
  EXPECT_TRUE(study_period().contains(p.begin));
  EXPECT_TRUE(study_period().contains(p.end - 1));
}

TEST(SimTime, WeekdayAnchor) {
  // 2006-01-01 was a Sunday; 2008-12-25 was a Thursday.
  EXPECT_EQ(weekday(0), Weekday::kSunday);
  EXPECT_EQ(weekday(hour_at(CivilDate{2008, 12, 25})), Weekday::kThursday);
  EXPECT_TRUE(is_weekend(Weekday::kSaturday));
  EXPECT_TRUE(is_weekend(Weekday::kSunday));
  EXPECT_FALSE(is_weekend(Weekday::kWednesday));
}

TEST(SimTime, LocalHourWrapsNegative) {
  // Hour 2 UTC-5 is 21:00 the previous day.
  EXPECT_EQ(local_hour_of_day(2, -5), 21);
  EXPECT_EQ(local_hour_of_day(12, -5), 7);
  EXPECT_EQ(local_hour_of_day(12, 0), 12);
}

TEST(SimTime, LocalWeekdayShifts) {
  // Midnight Sunday UTC is still Saturday evening in the US.
  EXPECT_EQ(local_weekday(0, -5), Weekday::kSaturday);
  EXPECT_EQ(local_weekday(6, -5), Weekday::kSunday);
}

TEST(SimTime, MonthIndexing) {
  EXPECT_EQ(month_index(0), 0);
  EXPECT_EQ(month_index(hour_at(CivilDate{2009, 3, 31})), 38);
  EXPECT_EQ(month_begin(0), 0);
  EXPECT_EQ(month_end(0), 31 * 24);
  EXPECT_EQ(month_begin(36), hour_at(CivilDate{2009, 1, 1}));
  EXPECT_EQ(month_label(35), "2008-12");
  EXPECT_EQ(month_label(0), "2006-01");
}

TEST(SimTime, HourLabel) {
  EXPECT_EQ(hour_label(hour_at(CivilDate{2008, 12, 17}, 5)), "2008-12-17 05:00");
}

TEST(SimTime, StepRowsCoverEachCadencePair) {
  struct Case {
    int steps_per_hour;
    int rows_per_hour;
    std::int64_t step;
    StepRows want;
  };
  const Case cases[] = {
      // 5-minute steps over hourly rows: the row is the step's hour.
      {12, 1, 0, {0, 1}},
      {12, 1, 11, {0, 1}},
      {12, 1, 12, {1, 1}},
      {12, 1, 23, {1, 1}},
      // 5-minute steps over 5-minute rows: one row per step.
      {12, 12, 0, {0, 1}},
      {12, 12, 11, {11, 1}},
      {12, 12, 12, {12, 1}},
      // 5-minute steps over 15-minute rows: three steps share a row.
      {12, 4, 0, {0, 1}},
      {12, 4, 2, {0, 1}},
      {12, 4, 3, {1, 1}},
      {12, 4, 11, {3, 1}},
      {12, 4, 12, {4, 1}},
      // Hourly steps over 5-minute rows: a step covers its hour's twelve.
      {1, 12, 0, {0, 12}},
      {1, 12, 1, {12, 12}},
      {1, 12, 5, {60, 12}},
      // 15-minute steps over 5-minute rows: three rows per step.
      {4, 12, 0, {0, 3}},
      {4, 12, 3, {9, 3}},
      {4, 12, 4, {12, 3}},
      // Hourly over hourly: the identity.
      {1, 1, 0, {0, 1}},
      {1, 1, 7, {7, 1}},
  };
  for (const Case& c : cases) {
    const StepRows got = step_rows(c.step, c.steps_per_hour, c.rows_per_hour);
    EXPECT_EQ(got.first, c.want.first)
        << c.steps_per_hour << "/" << c.rows_per_hour << " step " << c.step;
    EXPECT_EQ(got.count, c.want.count)
        << c.steps_per_hour << "/" << c.rows_per_hour << " step " << c.step;
  }
}

/// Round-trip property across several years, including leap handling.
class CivilRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CivilRoundTrip, DaysToCivilAndBack) {
  const std::int64_t day = epoch_days() + GetParam();
  const CivilDate d = civil_from_days(day);
  EXPECT_EQ(days_from_civil(d), day);
  EXPECT_GE(d.month, 1);
  EXPECT_LE(d.month, 12);
  EXPECT_GE(d.day, 1);
  EXPECT_LE(d.day, 31);
}

INSTANTIATE_TEST_SUITE_P(StudyRange, CivilRoundTrip,
                         ::testing::Range(0, 1186, 13));

}  // namespace
}  // namespace cebis
