#include "stats/correlation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "stats/percentile.h"

namespace cebis::stats {

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("pearson: length mismatch");
  if (x.size() < 2) throw std::invalid_argument("pearson: need >= 2 samples");
  const auto n = static_cast<double>(x.size());
  const double mx = std::accumulate(x.begin(), x.end(), 0.0) / n;
  const double my = std::accumulate(y.begin(), y.end(), 0.0) / n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) {
    throw std::invalid_argument("pearson: zero-variance input");
  }
  return sxy / std::sqrt(sxx * syy);
}

namespace {

/// Quantile-bin labels in [0, bins).
std::vector<int> quantile_bins(std::span<const double> x, int bins) {
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> edges;
  edges.reserve(static_cast<std::size_t>(bins) - 1);
  for (int b = 1; b < bins; ++b) {
    edges.push_back(percentile_sorted(sorted, 100.0 * b / bins));
  }
  std::vector<int> labels;
  labels.reserve(x.size());
  for (double v : x) {
    const auto it = std::upper_bound(edges.begin(), edges.end(), v);
    labels.push_back(static_cast<int>(it - edges.begin()));
  }
  return labels;
}

}  // namespace

double mutual_information(std::span<const double> x, std::span<const double> y,
                          int bins) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("mutual_information: length mismatch");
  }
  if (bins < 2) throw std::invalid_argument("mutual_information: bins < 2");
  if (x.size() < static_cast<std::size_t>(bins) * 4) {
    throw std::invalid_argument("mutual_information: too few samples for bin count");
  }
  const std::vector<int> bx = quantile_bins(x, bins);
  const std::vector<int> by = quantile_bins(y, bins);
  const auto ub = static_cast<std::size_t>(bins);
  std::vector<double> joint(ub * ub, 0.0);
  std::vector<double> px(ub, 0.0);
  std::vector<double> py(ub, 0.0);
  const double w = 1.0 / static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto a = static_cast<std::size_t>(bx[i]);
    const auto b = static_cast<std::size_t>(by[i]);
    joint[a * ub + b] += w;
    px[a] += w;
    py[b] += w;
  }
  double mi = 0.0;
  for (std::size_t a = 0; a < ub; ++a) {
    for (std::size_t b = 0; b < ub; ++b) {
      const double j = joint[a * ub + b];
      if (j > 0.0 && px[a] > 0.0 && py[b] > 0.0) {
        mi += j * std::log(j / (px[a] * py[b]));
      }
    }
  }
  return std::max(0.0, mi);
}

}  // namespace cebis::stats
