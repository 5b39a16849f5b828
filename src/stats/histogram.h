#ifndef CEBIS_STATS_HISTOGRAM_H
#define CEBIS_STATS_HISTOGRAM_H

// Fixed-bin histograms, used for the price-change distributions (Fig 7),
// the pairwise differential distributions (Fig 10), and the differential
// duration distribution (Fig 13).

#include <span>
#include <string>
#include <vector>

namespace cebis::stats {

class Histogram {
 public:
  /// Bins of width `bin_width` covering [lo, hi); samples outside the
  /// range count towards total() but land in no bin.
  Histogram(double lo, double hi, double bin_width);

  void add(double x, double weight = 1.0);
  void add_all(std::span<const double> xs);

  // cebis-lint: allow(unreferenced-api) obs bucket-edge oracle
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  // cebis-lint: allow(unreferenced-api) obs bucket-edge oracle
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] double bin_center(std::size_t i) const;
  [[nodiscard]] double count(std::size_t i) const;

  [[nodiscard]] double total() const noexcept { return total_; }

  /// Fraction of total mass in bin i (normalized density x bin width).
  [[nodiscard]] double fraction(std::size_t i) const;

  /// Rows "center fraction" for plotting/CSV output.
  struct Row {
    double center = 0.0;
    double fraction = 0.0;
    double count = 0.0;
  };
  [[nodiscard]] std::vector<Row> rows() const;

  /// Crude console rendering (for bench stdout output).
  [[nodiscard]] std::string ascii(int width = 50) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

}  // namespace cebis::stats

#endif  // CEBIS_STATS_HISTOGRAM_H
