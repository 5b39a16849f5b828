#include "base/simtime.h"

#include <array>
#include <cassert>
#include <cstdio>

namespace cebis {

std::int64_t days_from_civil(const CivilDate& d) noexcept {
  // Howard Hinnant's days_from_civil, valid for the proleptic Gregorian
  // calendar. Shifts the year so leap days land at era boundaries.
  auto y = static_cast<std::int64_t>(d.year);
  const auto m = static_cast<unsigned>(d.month);
  const auto dd = static_cast<unsigned>(d.day);
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const auto yoe = static_cast<unsigned>(y - era * 400);              // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + dd - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

CivilDate civil_from_days(std::int64_t days) noexcept {
  days += 719468;
  const std::int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const auto doe = static_cast<unsigned>(days - era * 146097);           // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  const unsigned dd = doy - (153 * mp + 2) / 5 + 1;                      // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                            // [1, 12]
  return CivilDate{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
                   static_cast<int>(dd)};
}

std::string to_string(Weekday d) {
  static const std::array<const char*, 7> kNames = {
      "Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"};
  return kNames.at(static_cast<std::size_t>(d));
}

std::int64_t epoch_days() noexcept {
  static const std::int64_t kEpoch = days_from_civil(CivilDate{2006, 1, 1});
  return kEpoch;
}

HourIndex hour_at(const CivilDate& d) noexcept {
  return (days_from_civil(d) - epoch_days()) * 24;
}

HourIndex hour_at(const CivilDate& d, int hour_of_day) noexcept {
  return hour_at(d) + hour_of_day;
}

CivilDate date_of(HourIndex h) noexcept {
  // floor division for possibly-negative hours
  std::int64_t day = h >= 0 ? h / 24 : (h - 23) / 24;
  return civil_from_days(day + epoch_days());
}

int hour_of_day(HourIndex h) noexcept {
  const std::int64_t m = h % 24;
  return static_cast<int>(m >= 0 ? m : m + 24);
}

int local_hour_of_day(HourIndex h, int utc_offset_hours) noexcept {
  return hour_of_day(h + utc_offset_hours);
}

std::int64_t day_index(HourIndex h) noexcept {
  return h >= 0 ? h / 24 : (h - 23) / 24;
}

Weekday weekday(HourIndex h) noexcept {
  // 2006-01-01 was a Sunday.
  std::int64_t d = day_index(h) % 7;
  if (d < 0) d += 7;
  return static_cast<Weekday>(d);
}

Weekday local_weekday(HourIndex h, int utc_offset_hours) noexcept {
  return weekday(h + utc_offset_hours);
}

bool is_weekend(Weekday d) noexcept {
  return d == Weekday::kSunday || d == Weekday::kSaturday;
}

int month_index(HourIndex h) noexcept { return month_index(date_of(h)); }

int month_index(const CivilDate& d) noexcept {
  return (d.year - 2006) * 12 + (d.month - 1);
}

HourIndex month_begin(int month_idx) noexcept {
  const int year = 2006 + month_idx / 12;
  const int month = 1 + month_idx % 12;
  return hour_at(CivilDate{year, month, 1});
}

HourIndex month_end(int month_idx) noexcept { return month_begin(month_idx + 1); }

std::string month_label(int month_idx) {
  const int year = 2006 + month_idx / 12;
  const int month = 1 + month_idx % 12;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d", year, month);
  return buf;
}

std::string hour_label(HourIndex h) {
  const CivilDate d = date_of(h);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:00", d.year, d.month, d.day,
                hour_of_day(h));
  return buf;
}

Period study_period() noexcept {
  return Period{hour_at(CivilDate{2006, 1, 1}), hour_at(CivilDate{2009, 4, 1})};
}

Period trace_period() noexcept {
  const HourIndex begin = hour_at(CivilDate{2008, 12, 17});
  return Period{begin, begin + 24 * 24};
}

}  // namespace cebis
