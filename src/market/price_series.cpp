#include "market/price_series.h"

#include <stdexcept>

namespace cebis::market {

PriceSeries::PriceSeries(Period period, std::vector<double> values)
    : PriceSeries(period, 1, std::move(values)) {}

PriceSeries::PriceSeries(Period period, int samples_per_hour,
                         std::vector<double> values)
    : period_(period),
      samples_per_hour_(samples_per_hour),
      values_(std::move(values)) {
  if (samples_per_hour_ < 1) {
    throw std::invalid_argument("PriceSeries: samples_per_hour < 1");
  }
  if (static_cast<std::int64_t>(values_.size()) !=
      period_.hours() * samples_per_hour_) {
    throw std::invalid_argument(
        "PriceSeries: size does not match period x samples_per_hour");
  }
}

double PriceSeries::at(HourIndex h) const {
  if (!period_.contains(h)) {
    throw std::out_of_range("PriceSeries::at: hour outside period");
  }
  const auto row = static_cast<std::size_t>(h - period_.begin);
  if (samples_per_hour_ == 1) return values_[row];
  const auto n = static_cast<std::size_t>(samples_per_hour_);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += values_[row * n + i];
  return sum / static_cast<double>(samples_per_hour_);
}

void PriceSeries::set_sample(HourIndex h, int sample, double value) {
  if (!period_.contains(h)) {
    throw std::out_of_range("PriceSeries::set_sample: hour outside period");
  }
  if (sample < 0 || sample >= samples_per_hour_) {
    throw std::out_of_range(
        "PriceSeries::set_sample: sample outside native interval");
  }
  values_[static_cast<std::size_t>(h - period_.begin) *
              static_cast<std::size_t>(samples_per_hour_) +
          static_cast<std::size_t>(sample)] = value;
}

double PriceSeries::at(HourIndex h, int sample) const {
  if (!period_.contains(h)) {
    throw std::out_of_range("PriceSeries::at: hour outside period");
  }
  if (sample < 0 || sample >= samples_per_hour_) {
    throw std::out_of_range("PriceSeries::at: sample outside native interval");
  }
  return values_[static_cast<std::size_t>(h - period_.begin) *
                     static_cast<std::size_t>(samples_per_hour_) +
                 static_cast<std::size_t>(sample)];
}

std::span<const double> PriceSeries::slice(const Period& p) const {
  if (p.begin < period_.begin || p.end > period_.end || p.begin > p.end) {
    throw std::out_of_range("PriceSeries::slice: period not contained");
  }
  const auto n = static_cast<std::size_t>(samples_per_hour_);
  return std::span<const double>(values_).subspan(
      static_cast<std::size_t>(p.begin - period_.begin) * n,
      static_cast<std::size_t>(p.hours()) * n);
}

std::vector<double> PriceSeries::daily_peak_averages(int utc_offset_hours,
                                                     int first_hour,
                                                     int last_hour) const {
  if (first_hour < 0 || last_hour > 23 || first_hour > last_hour) {
    throw std::invalid_argument("daily_peak_averages: bad hour range");
  }
  std::vector<double> out;
  const std::int64_t days = period_.hours() / 24;
  out.reserve(static_cast<std::size_t>(days));
  for (std::int64_t d = 0; d < days; ++d) {
    double s = 0.0;
    int n = 0;
    for (int h = 0; h < 24; ++h) {
      const HourIndex abs_hour = period_.begin + d * 24 + h;
      const int local = local_hour_of_day(abs_hour, utc_offset_hours);
      if (local >= first_hour && local <= last_hour) {
        s += at(abs_hour);
        ++n;
      }
    }
    out.push_back(n > 0 ? s / n : 0.0);
  }
  return out;
}

}  // namespace cebis::market
