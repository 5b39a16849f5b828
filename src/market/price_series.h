#ifndef CEBIS_MARKET_PRICE_SERIES_H
#define CEBIS_MARKET_PRICE_SERIES_H

// Price series containers. Every series carries a *native price
// interval* (samples per hour): hourly series are the work-horse
// (real-time and day-ahead markets), five-minute series back the
// Fig 4/5 real-time comparison and the sub-hourly market scenarios,
// daily series carry the day-ahead peak averages of Fig 3.

#include <span>
#include <vector>

#include "base/ids.h"
#include "base/simtime.h"
#include "base/units.h"

namespace cebis::market {

/// Fixed-interval price series over a half-open hour period. The native
/// interval is `60 / samples_per_hour()` minutes; values are laid out
/// row-major by hour (samples_per_hour values per hour). Hourly series
/// (samples_per_hour == 1) are the default and the historical shape.
class PriceSeries {
 public:
  PriceSeries() = default;
  /// Hourly series: one value per hour of `period`.
  PriceSeries(Period period, std::vector<double> values);
  /// Native-interval series: `samples_per_hour` values per hour of
  /// `period` (values.size() == period.hours() * samples_per_hour).
  PriceSeries(Period period, int samples_per_hour, std::vector<double> values);

  [[nodiscard]] const Period& period() const noexcept { return period_; }
  /// Native sampling rate: 1 = hourly, 12 = five-minute.
  [[nodiscard]] int samples_per_hour() const noexcept { return samples_per_hour_; }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// Hourly value at an absolute hour: the native sample for hourly
  /// series, the mean of the hour's native samples otherwise. Throws if
  /// outside the period.
  [[nodiscard]] double at(HourIndex h) const;

  /// Native sample `sample` (0 .. samples_per_hour-1) of hour `h`.
  [[nodiscard]] double at(HourIndex h, int sample) const;

  /// Overwrites one native sample (bounds-checked like at()). The live
  /// tick assembly (market/tick_assembler.h) pre-sizes a series over
  /// the session window and writes settlements into place as they
  /// arrive; batch code never needs this.
  void set_sample(HourIndex h, int sample, double value);

  /// Values restricted to a sub-period (view, native layout).
  [[nodiscard]] std::span<const double> slice(const Period& p) const;

  /// Daily means over local "peak" hours [first_hour, last_hour] given a
  /// UTC offset (day-ahead *peak* prices average 07:00-23:00 local).
  [[nodiscard]] std::vector<double> daily_peak_averages(int utc_offset_hours,
                                                        int first_hour = 7,
                                                        int last_hour = 22) const;

 private:
  Period period_;
  int samples_per_hour_ = 1;
  std::vector<double> values_;
};

/// Historical name for the hourly-sampled common case; the class has
/// carried a native interval since the sub-hourly market work.
using HourlySeries = PriceSeries;

/// One value per day.
struct DailySeries {
  std::int64_t first_day = 0;  ///< day index since epoch
  std::vector<double> values;
};

/// All generated market prices for a period. Indexed by HubId; hubs
/// without an hourly market have empty rt/da entries.
/// `samples_per_hour` is the native interval of the rt series (the da
/// series stay hourly - day-ahead is an hourly product).
struct PriceSet {
  Period period;
  int samples_per_hour = 1;       ///< native rt interval (1 = hourly)
  std::vector<PriceSeries> rt;    ///< real-time prices per hub (native interval)
  std::vector<PriceSeries> da;    ///< hourly day-ahead prices per hub

  /// Hourly rt value (the native sample when hourly, the hour mean
  /// otherwise).
  [[nodiscard]] UsdPerMwh rt_at(HubId hub, HourIndex h) const {
    return UsdPerMwh{rt.at(hub.index()).at(h)};
  }
  /// Native rt sample (0 .. samples_per_hour-1) within hour `h`.
  [[nodiscard]] UsdPerMwh rt_at(HubId hub, HourIndex h, int sample) const {
    return UsdPerMwh{rt.at(hub.index()).at(h, sample)};
  }
  [[nodiscard]] UsdPerMwh da_at(HubId hub, HourIndex h) const {
    return UsdPerMwh{da.at(hub.index()).at(h)};
  }
};

}  // namespace cebis::market

#endif  // CEBIS_MARKET_PRICE_SERIES_H
