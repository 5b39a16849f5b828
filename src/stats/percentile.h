#ifndef CEBIS_STATS_PERCENTILE_H
#define CEBIS_STATS_PERCENTILE_H

// Percentile estimation. The 95th percentile of 5-minute traffic samples
// is the billing quantity in the 95/5 model (paper §4), so this is a
// load-bearing primitive: the bandwidth constraints and part of Fig 15/16
// flow through it.

#include <cstdint>
#include <span>
#include <vector>

namespace cebis::stats {

/// Linear-interpolation percentile (type R-7, the numpy/Excel default).
/// p is in [0, 100]. Input need not be sorted.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Percentile of pre-sorted data (no copy).
[[nodiscard]] double percentile_sorted(std::span<const double> sorted, double p);

/// Convenience: the 95th percentile (95/5 billing).
[[nodiscard]] double p95(std::span<const double> xs);

/// Inter-quartile range bounds.
struct Quartiles {
  double q25 = 0.0;
  double q50 = 0.0;
  double q75 = 0.0;
};

[[nodiscard]] Quartiles quartiles(std::span<const double> xs);

/// Exact streaming percentile for a sample count known in advance.
///
/// Keeps only the largest K samples in a min-heap, where K is exactly
/// the number of order statistics the R-7 interpolation at `p` needs
/// (about (1 - p/100) * n + 1 values - a 20x memory cut for the p95
/// the 95/5 audit computes per cluster). value() reproduces
/// percentile() bit-for-bit, so the simulation engine can stream the
/// realized p95 instead of retaining every interval's load.
class StreamingPercentile {
 public:
  /// `count` is the exact number of add() calls that will follow.
  StreamingPercentile(std::int64_t count, double p = 95.0);

  void add(double x);

  /// The percentile over all samples; requires all `count` samples to
  /// have been added (throws std::logic_error otherwise). Identical to
  /// stats::percentile over the full series.
  [[nodiscard]] double value() const;

  [[nodiscard]] std::int64_t count() const noexcept { return added_; }

 private:
  std::int64_t expected_;
  std::int64_t added_ = 0;
  double rank_;             ///< R-7 rank (p/100 * (count-1))
  std::size_t keep_;        ///< heap capacity: count - floor(rank)
  std::vector<double> heap_;  ///< min-heap of the largest keep_ samples
};

}  // namespace cebis::stats

#endif  // CEBIS_STATS_PERCENTILE_H
