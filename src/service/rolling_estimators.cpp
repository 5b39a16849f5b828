#include "service/rolling_estimators.h"

#include <stdexcept>

namespace cebis::service {

RollingEstimators::RollingEstimators(double ewma_alpha) : alpha_(ewma_alpha) {
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    throw std::invalid_argument("RollingEstimators: ewma_alpha outside (0, 1]");
  }
}

void RollingEstimators::add(double x) {
  // Left-fold in arrival order: the exact accumulation stats::mean
  // performs, so mean() stays bit-identical to the batch computation.
  sum_ += x;
  ewma_ = count_ == 0 ? x : alpha_ * x + (1.0 - alpha_) * ewma_;
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
