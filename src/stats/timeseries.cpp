#include "stats/timeseries.h"

#include <cmath>
#include <stdexcept>

namespace cebis::stats {

std::vector<double> window_average(std::span<const double> xs, std::size_t window) {
  if (window == 0) throw std::invalid_argument("window_average: window == 0");
  std::vector<double> out;
  out.reserve(xs.size() / window);
  for (std::size_t i = 0; i + window <= xs.size(); i += window) {
    double s = 0.0;
    for (std::size_t j = 0; j < window; ++j) s += xs[i + j];
    out.push_back(s / static_cast<double>(window));
  }
  return out;
}

std::vector<DifferentialRun> differential_runs(std::span<const double> diff,
                                               double threshold) {
  if (threshold < 0.0) {
    throw std::invalid_argument("differential_runs: negative threshold");
  }
  std::vector<DifferentialRun> runs;
  DifferentialRun cur;
  for (std::size_t i = 0; i < diff.size(); ++i) {
    int s = 0;
    if (diff[i] > threshold) s = 1;
    if (diff[i] < -threshold) s = -1;
    if (s == cur.sign) {
      if (s != 0) ++cur.length;
      continue;
    }
    if (cur.sign != 0) runs.push_back(cur);
    cur = DifferentialRun{i, s != 0 ? std::size_t{1} : std::size_t{0}, s};
  }
  if (cur.sign != 0) runs.push_back(cur);
  return runs;
}

std::vector<double> duration_time_fractions(std::span<const DifferentialRun> runs,
                                            std::size_t max_len) {
  if (max_len == 0) throw std::invalid_argument("duration_time_fractions: max_len == 0");
  std::vector<double> hours(max_len, 0.0);
  double total = 0.0;
  for (const auto& r : runs) {
    const std::size_t bucket = std::min(r.length, max_len) - 1;
    hours[bucket] += static_cast<double>(r.length);
    total += static_cast<double>(r.length);
  }
  if (total > 0.0) {
    for (double& h : hours) h /= total;
  }
  return hours;
}

std::vector<GroupSummary> grouped_quartiles(
    std::span<const double> xs, const std::function<int(std::size_t)>& key_of,
    int group_count) {
  if (group_count <= 0) throw std::invalid_argument("grouped_quartiles: group_count");
  std::vector<std::vector<double>> buckets(static_cast<std::size_t>(group_count));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const int k = key_of(i);
    if (k < 0 || k >= group_count) continue;  // caller may exclude samples
    buckets[static_cast<std::size_t>(k)].push_back(xs[i]);
  }
  std::vector<GroupSummary> out;
  out.reserve(buckets.size());
  for (int g = 0; g < group_count; ++g) {
    const auto& b = buckets[static_cast<std::size_t>(g)];
    GroupSummary s;
    s.group = g;
    s.count = b.size();
    if (!b.empty()) s.q = quartiles(b);
    out.push_back(s);
  }
  return out;
}

}  // namespace cebis::stats
