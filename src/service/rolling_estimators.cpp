#include "service/rolling_estimators.h"

#include <stdexcept>

namespace cebis::service {

constexpr double kEwmaAlpha = 0.1;

void RollingEstimators::add(double x) {
  // Left-fold in arrival order: the exact accumulation stats::mean
  // performs, so mean() stays bit-identical to the batch computation.
  sum_ += x;
  ewma_ = count_ == 0 ? x : kEwmaAlpha * x + (1.0 - kEwmaAlpha) * ewma_;
  last_ = x;
  ++count_;
}

double RollingEstimators::mean() const {
  if (count_ == 0) {
    throw std::logic_error("RollingEstimators::mean: no samples");
  }
  return sum_ / static_cast<double>(count_);
}

double RollingEstimators::ewma() const {
  if (count_ == 0) {
    throw std::logic_error("RollingEstimators::ewma: no samples");
  }
  return ewma_;
}

}  // namespace cebis::service
