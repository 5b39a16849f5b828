#ifndef CEBIS_SERVICE_ROLLING_ESTIMATORS_H
#define CEBIS_SERVICE_ROLLING_ESTIMATORS_H

// Online telemetry statistics for the live service mode.
//
// A live session wants rolling answers ("what is the bill rate doing?")
// in constant memory, and the answers must agree with the batch
// post-processing - an operator comparing the live dashboard against
// the nightly batch report should never see a discrepancy that is
// really floating-point drift. So:
//
//   mean()   == stats::mean over the samples so far, bit-for-bit
//               (same left-fold accumulation order)
//   ewma()   the usual exponentially weighted mean (the only genuinely
//            "rolling" estimate; no batch analogue)
//   last()   the newest sample
//
// tests/test_rolling_estimators.cpp pins the bit-for-bit clause.

#include <cstdint>

namespace cebis::service {

class RollingEstimators {
 public:
  void add(double x);

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] double last() const noexcept { return last_; }

  /// stats::mean over everything added, bit-for-bit. Throws
  /// std::logic_error before the first sample.
  [[nodiscard]] double mean() const;

  /// Exponentially weighted mean, seeded with the first sample; the
  /// newest sample weighs 0.1.
  [[nodiscard]] double ewma() const;

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double ewma_ = 0.0;
  double last_ = 0.0;
};

}  // namespace cebis::service

#endif  // CEBIS_SERVICE_ROLLING_ESTIMATORS_H
