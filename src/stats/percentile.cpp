#include "stats/percentile.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace cebis::stats {

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double p95(std::span<const double> xs) { return percentile(xs, 95.0); }


Quartiles quartiles(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return Quartiles{percentile_sorted(sorted, 25.0), percentile_sorted(sorted, 50.0),
                   percentile_sorted(sorted, 75.0)};
}

StreamingPercentile::StreamingPercentile(std::int64_t count, double p)
    : expected_(count) {
  if (count <= 0) {
    throw std::invalid_argument("StreamingPercentile: count <= 0");
  }
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("StreamingPercentile: p out of range");
  }
  rank_ = p / 100.0 * static_cast<double>(count - 1);
  keep_ = static_cast<std::size_t>(count) -
          static_cast<std::size_t>(std::floor(rank_));
  heap_.reserve(keep_);
}

void StreamingPercentile::add(double x) {
  if (added_ >= expected_) {
    throw std::logic_error("StreamingPercentile::add: more samples than declared");
  }
  ++added_;
  if (heap_.size() < keep_) {
    heap_.push_back(x);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
    return;
  }
  if (x > heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<double>());
    heap_.back() = x;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
  }
}

double StreamingPercentile::value() const {
  if (added_ != expected_) {
    throw std::logic_error("StreamingPercentile::value: sample count mismatch");
  }
  // heap_ holds sorted-global indices [count - keep_, count - 1]; the
  // R-7 interpolation needs indices floor(rank) = count - keep_ and
  // ceil(rank). Same arithmetic as percentile_sorted.
  std::vector<double> tail(heap_);
  std::sort(tail.begin(), tail.end());
  if (expected_ == 1) return tail.front();
  const double frac = rank_ - std::floor(rank_);
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank_)) -
                         static_cast<std::size_t>(std::floor(rank_));
  return tail[0] + frac * (tail[hi] - tail[0]);
}

}  // namespace cebis::stats
