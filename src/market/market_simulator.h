#ifndef CEBIS_MARKET_MARKET_SIMULATOR_H
#define CEBIS_MARKET_MARKET_SIMULATOR_H

// Wholesale electricity market simulator.
//
// Produces the three market views the paper analyzes (§2.2, §3):
//  - hourly real-time prices for the 29 hourly hubs (the routing input),
//  - hourly day-ahead prices (smoother, based on previous-day factors),
//  - sub-hourly real-time prices derived from the hourly series (Fig 4/5),
// plus daily day-ahead peak averages for any hub including the
// non-market Northwest (Fig 3).
//
// Generation is deterministic given the seed, and prices for an hour do
// not depend on the requested window: generate() always evolves the
// factor processes from the study epoch, so a 24-day slice agrees with
// the same hours inside a 39-month run.
//
// generate() runs one task per market RTO on up to
// default_thread_count() workers (base/parallel.h), largest RTO first.
// The RTOs' streams never read one another; the one shared factor, the
// national one, is replayed in every task from its own copy of the
// national stream. Each task writes only its hubs' rows, so the output
// is the same bits at any width, and every worker joins before
// generate() returns.

#include <cstdint>
#include <span>
#include <vector>

#include "base/simtime.h"
#include "market/hub.h"
#include "market/price_model.h"
#include "market/price_series.h"
#include "stats/matrix.h"
#include "stats/rng.h"

namespace cebis::market {

class MarketSimulator {
 public:
  MarketSimulator(const HubRegistry& hubs, PriceModelParams params,
                  std::uint64_t seed);

  /// Convenience: default registry + default parameters.
  explicit MarketSimulator(std::uint64_t seed)
      : MarketSimulator(HubRegistry::instance(), PriceModelParams::defaults(),
                        seed) {}

  /// Hourly RT + DA prices for every hourly hub over `period`. The
  /// period must start at or after the study epoch (Jan 2006).
  [[nodiscard]] PriceSet generate(const Period& period) const;

  /// Native-interval RT prices (`samples_per_hour` samples per hour,
  /// which must divide 60) + hourly DA. Each hub's hourly series is the
  /// one generate() produces; around it the simulator synthesizes
  /// calibrated intra-hour structure (the Fig 4/5 AR process, time-
  /// rescaled to the requested interval) for every hub whose market
  /// settles at least that finely (HubInfo::rt_interval_minutes; coarser
  /// hubs keep flat hours). Window-invariant like the hourly generator:
  /// the intra-hour processes evolve from the study epoch, so a 24-day
  /// slice agrees with the same hours of a 39-month request.
  [[nodiscard]] PriceSet generate(const Period& period,
                                  int samples_per_hour) const;

  /// Intra-hour real-time samples for one hub: `samples_per_hour`
  /// sub-samples (dividing 60) around each hour of `hourly`, which must
  /// itself be hourly-sampled. The AR(1) deviation process is
  /// time-rescaled so its per-5-minute persistence matches the Fig 4
  /// calibration at every interval; 12 gives paper Fig 4's "Real-time
  /// 5-min" curve. Unlike generate(period, samples_per_hour) the
  /// process starts fresh at the series begin (figure-bench semantics,
  /// not window-invariant).
  [[nodiscard]] std::vector<double> sub_hourly_series(HubId hub,
                                                      const HourlySeries& hourly,
                                                      int samples_per_hour) const;

  /// Daily day-ahead *peak* averages (Fig 3). Works for hourly hubs (via
  /// their DA series) and for the daily-only Northwest hub (dedicated
  /// low-volatility hydro process).
  [[nodiscard]] DailySeries daily_day_ahead_peak(const PriceSet& prices,
                                                 HubId hub) const;

  [[nodiscard]] const HubRegistry& hubs() const noexcept { return hubs_; }
  [[nodiscard]] const PriceModelParams& params() const noexcept { return params_; }

 private:
  const HubRegistry& hubs_;
  PriceModelParams params_;
  std::uint64_t seed_;

  /// `hourly` at `samples_per_hour` for generate(): the one flat-hour
  /// rule (a hub whose market settles coarser repeats each hour), else
  /// intra_hour_samples.
  [[nodiscard]] PriceSeries intra_hour_view(HubId hub,
                                            const HourlySeries& hourly,
                                            int samples_per_hour,
                                            std::int64_t warmup_hours) const;
  /// The one intra-hour sampler: the hub's AR(1) stream around `hourly`
  /// after `warmup_hours` hours of draws consumed unemitted (the hours
  /// from the study epoch to generate()'s window; 0 for
  /// sub_hourly_series).
  [[nodiscard]] std::vector<double> intra_hour_samples(
      HubId hub, std::span<const double> hourly, int samples_per_hour,
      std::int64_t warmup_hours) const;

  // Per-RTO Cholesky factors of the spatial innovation kernel, indexed
  // by RTO, over the RTO's hubs in HubRegistry::hubs_in order.
  std::vector<stats::Matrix> rto_chol_;
};

}  // namespace cebis::market

#endif  // CEBIS_MARKET_MARKET_SIMULATOR_H
