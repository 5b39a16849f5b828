#ifndef CEBIS_STATS_CORRELATION_H
#define CEBIS_STATS_CORRELATION_H

// Dependence measures for the geographic correlation analysis (paper
// §3.2, Fig 8). Pearson correlation is the headline statistic; the paper
// also verifies its findings with mutual information (footnotes 7-8),
// which we reproduce via a binned estimator.

#include <span>

namespace cebis::stats {

/// Pearson correlation coefficient of two equal-length series.
[[nodiscard]] double pearson(std::span<const double> x, std::span<const double> y);

/// Binned mutual information estimate in nats. Both series are
/// discretized into `bins` equal-probability bins (quantile binning, so
/// the estimate is invariant to monotone transforms - this is what lets
/// it pick up the non-linear same-RTO relationships the paper mentions).
[[nodiscard]] double mutual_information(std::span<const double> x,
                                        std::span<const double> y, int bins = 16);

}  // namespace cebis::stats

#endif  // CEBIS_STATS_CORRELATION_H
