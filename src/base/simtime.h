#ifndef CEBIS_BASE_SIMTIME_H
#define CEBIS_BASE_SIMTIME_H

// Simulation calendar.
//
// The paper's study period is January 2006 through March 2009 (39 months
// of hourly prices, >28k samples per hub) and the Akamai trace window is
// 24 days around the turn of 2008/2009. All simulation time is expressed
// as integer hours since the epoch 2006-01-01 00:00. Local times (for
// diurnal demand/price shapes) are derived with per-location fixed UTC
// offsets; daylight-saving shifts are ignored (a documented
// simplification - they move diurnal shapes by one hour for part of the
// year and do not affect any of the reproduced statistics).

#include <cstdint>
#include <string>

namespace cebis {

/// Hours since 2006-01-01 00:00 (the study epoch).
using HourIndex = std::int64_t;

/// Proleptic Gregorian calendar date.
struct CivilDate {
  int year = 2006;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  friend constexpr auto operator<=>(const CivilDate&, const CivilDate&) = default;
};

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
[[nodiscard]] std::int64_t days_from_civil(const CivilDate& d) noexcept;

/// Inverse of days_from_civil.
[[nodiscard]] CivilDate civil_from_days(std::int64_t days) noexcept;

/// Day of week, 0 = Sunday .. 6 = Saturday.
enum class Weekday : int {
  kSunday = 0,
  kMonday = 1,
  kTuesday = 2,
  kWednesday = 3,
  kThursday = 4,
  kFriday = 5,
  kSaturday = 6,
};

[[nodiscard]] std::string to_string(Weekday d);

/// The epoch as days since 1970-01-01 (2006-01-01).
[[nodiscard]] std::int64_t epoch_days() noexcept;

/// Hour index for midnight (00:00) of a civil date.
[[nodiscard]] HourIndex hour_at(const CivilDate& d) noexcept;
[[nodiscard]] HourIndex hour_at(const CivilDate& d, int hour_of_day) noexcept;

/// Civil date containing the given hour.
[[nodiscard]] CivilDate date_of(HourIndex h) noexcept;

/// Hour-of-day in 0..23 at the epoch reference (UTC-like wall clock).
[[nodiscard]] int hour_of_day(HourIndex h) noexcept;

/// Hour-of-day in 0..23 after applying a fixed UTC offset in hours
/// (e.g. -5 for Eastern, -8 for Pacific).
[[nodiscard]] int local_hour_of_day(HourIndex h, int utc_offset_hours) noexcept;

/// Day index since epoch (hour / 24).
[[nodiscard]] std::int64_t day_index(HourIndex h) noexcept;

/// Day of week of the given hour, optionally shifted to a local zone.
[[nodiscard]] Weekday weekday(HourIndex h) noexcept;
[[nodiscard]] Weekday local_weekday(HourIndex h, int utc_offset_hours) noexcept;

[[nodiscard]] bool is_weekend(Weekday d) noexcept;

/// Month index since epoch: 0 = Jan 2006, 38 = Mar 2009.
[[nodiscard]] int month_index(HourIndex h) noexcept;
/// The same for a civil date (month_index(h) is month_index(date_of(h))).
[[nodiscard]] int month_index(const CivilDate& d) noexcept;

/// First hour of the given month index (0 = Jan 2006).
[[nodiscard]] HourIndex month_begin(int month_idx) noexcept;

/// One-past-the-last hour of the given month index.
[[nodiscard]] HourIndex month_end(int month_idx) noexcept;

/// "2008-12" style label for a month index.
[[nodiscard]] std::string month_label(int month_idx);

/// "2008-12-17 05:00" style label for an hour.
[[nodiscard]] std::string hour_label(HourIndex h);

/// Half-open hour range [begin, end).
struct Period {
  HourIndex begin = 0;
  HourIndex end = 0;

  [[nodiscard]] constexpr std::int64_t hours() const noexcept { return end - begin; }
  [[nodiscard]] constexpr bool contains(HourIndex h) const noexcept {
    return h >= begin && h < end;
  }

  friend constexpr auto operator<=>(const Period&, const Period&) = default;
};

/// The full 39-month study period: Jan 2006 .. Mar 2009 (28464 hours).
[[nodiscard]] Period study_period() noexcept;

/// The 24-day Akamai trace window (2008-12-17 .. 2009-01-10).
[[nodiscard]] Period trace_period() noexcept;

/// True when `samples_per_hour` is a valid sub-hourly sampling rate: at
/// least one sample per hour, with a whole number of minutes per sample
/// (1 = hourly, 4 = 15-minute, 12 = five-minute). The single source of
/// the invariant every interval-carrying layer (price series, tariffs,
/// scenarios, the lazy history) validates against.
[[nodiscard]] constexpr bool divides_hour(int samples_per_hour) noexcept {
  return samples_per_hour >= 1 && 60 % samples_per_hour == 0;
}

/// True when two per-hour cadences nest: both at least 1 and one dividing
/// the other (12 over 4 or 4 over 12, not 12 over 5). See step_rows.
[[nodiscard]] constexpr bool cadences_nest(int steps_per_hour,
                                           int rows_per_hour) noexcept {
  return steps_per_hour >= 1 && rows_per_hour >= 1 &&
         (steps_per_hour % rows_per_hour == 0 ||
          rows_per_hour % steps_per_hour == 0);
}

/// The rows of an interval grid one accounting step covers, counted from
/// the hour the steps start at (`count` > 1 only for a coarser step).
struct StepRows {
  std::int64_t first = 0;
  std::int64_t count = 1;
};

/// The one step-to-interval mapping (price refresh, energy recording,
/// storage metering, live price sealing): step `step` at
/// `steps_per_hour` lies inside one row of a `rows_per_hour` grid, or
/// covers rows_per_hour / steps_per_hour whole rows when coarser. Hourly
/// rows are rows_per_hour = 1. Requires step >= 0 and cadences_nest.
[[nodiscard]] constexpr StepRows step_rows(std::int64_t step,
                                           int steps_per_hour,
                                           int rows_per_hour) noexcept {
  const int rows_per_step = rows_per_hour / steps_per_hour;
  return StepRows{step * rows_per_hour / steps_per_hour,
                  rows_per_step > 1 ? rows_per_step : 1};
}

}  // namespace cebis

#endif  // CEBIS_BASE_SIMTIME_H
