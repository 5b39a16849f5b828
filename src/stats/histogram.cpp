#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cebis::stats {

Histogram::Histogram(double lo, double hi, double bin_width)
    : lo_(lo), hi_(hi), bin_width_(bin_width) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (!(bin_width > 0.0)) throw std::invalid_argument("Histogram: bin_width <= 0");
  const auto n = static_cast<std::size_t>(std::ceil((hi - lo) / bin_width - 1e-12));
  counts_.assign(n, 0.0);
}

void Histogram::add(double x, double weight) {
  total_ += weight;
  if (x < lo_ || x >= hi_) return;
  auto i = static_cast<std::size_t>((x - lo_) / bin_width_);
  if (i >= counts_.size()) i = counts_.size() - 1;  // float edge case at hi
  counts_[i] += weight;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Histogram::bin_lo(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + static_cast<double>(i) * bin_width_;
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + bin_width_; }

double Histogram::bin_center(std::size_t i) const {
  return bin_lo(i) + 0.5 * bin_width_;
}

double Histogram::count(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::count");
  return counts_[i];
}

double Histogram::fraction(std::size_t i) const {
  if (total_ <= 0.0) return 0.0;
  return count(i) / total_;
}

std::vector<Histogram::Row> Histogram::rows() const {
  std::vector<Row> out;
  out.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out.push_back(Row{bin_center(i), fraction(i), counts_[i]});
  }
  return out;
}

std::string Histogram::ascii(int width) const {
  std::ostringstream os;
  const double peak = counts_.empty()
                          ? 0.0
                          : *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const int bar =
        peak > 0.0 ? static_cast<int>(std::lround(counts_[i] / peak * width)) : 0;
    os.width(9);
    os.precision(1);
    os.setf(std::ios::fixed);
    os << bin_center(i) << " |" << std::string(static_cast<std::size_t>(bar), '#')
       << "\n";
  }
  return os.str();
}

}  // namespace cebis::stats
