#ifndef CEBIS_MARKET_LAZY_PRICE_HISTORY_H
#define CEBIS_MARKET_LAZY_PRICE_HISTORY_H

// Lazily materialized study-period price history.
//
// The experiment fixture used to generate the full 39-month PriceSet
// eagerly, even when a scenario only replays the 24-day trace window.
// MarketSimulator::generate is window-invariant by construction (prices
// for an hour do not depend on the requested window), so the history
// can instead be materialized on demand: cover(period) generates the
// smallest window requested so far that contains every request, and
// full() materializes the whole study period.
//
// The history also carries every *native price interval* requested so
// far: cover(period, samples_per_hour) materializes a sub-hourly view
// of the same market (MarketSimulator::generate(period,
// samples_per_hour), itself window-invariant), cached and grown
// independently per resolution so an hourly sweep never pays for
// 5-minute samples and vice versa.
//
// A history serves one market: the one its PriceModelParams describe.
// A run on another market uses another history - a Fixture's
// price_history is replaced whole, as bench_ablation_spike_model does.
//
// Growth is monotone and previously returned sets are retained (stable
// addresses), so a `const PriceSet&` handed to a SimulationEngine stays
// valid after a later, wider request.
//
// Thread-safety contract (parallel sweeps): materialization is NOT
// thread-safe. run_scenarios performs every cover()/study_rt_means()
// call in its serial plan phase; during the concurrent run phase the
// history must not grow - engines only read the PriceSet references
// resolved up front, which the stable-address guarantee keeps valid.
// A cover() that generates fans out inside (MarketSimulator::generate
// runs one task per market RTO and joins them before it returns), so
// callers still call it from one thread at a time; nothing it starts
// outlives the call.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "base/simtime.h"
#include "market/hub.h"
#include "market/market_simulator.h"
#include "market/price_model.h"
#include "market/price_series.h"

namespace cebis::market {

class LazyPriceHistory {
 public:
  /// The history of the market `params` describe (the default registry's
  /// hubs), generated from `seed`.
  explicit LazyPriceHistory(
      std::uint64_t seed,
      PriceModelParams params = PriceModelParams::defaults())
      : sim_(HubRegistry::instance(), std::move(params), seed) {}

  /// The narrowest materialized set covering `need` (clamped to the
  /// study period) at the requested native interval (samples_per_hour
  /// must divide 60; 1 = the hourly history). Reuses the resolution's
  /// current widest set when it already covers the request; otherwise
  /// generates the union window.
  [[nodiscard]] const PriceSet& cover(Period need,
                                      int samples_per_hour = 1) const;

  /// The full study-period hourly set (what the eager fixture always
  /// built).
  [[nodiscard]] const PriceSet& full() const {
    return cover(study_period(), 1);
  }

  /// Per-hub mean real-time price over the full study period at hourly
  /// resolution (infinity for hubs without an rt market), computed once
  /// and memoized. The values are byte-identical to averaging full()'s
  /// series, but the full 39-month PriceSet is NOT retained when it was
  /// never otherwise requested: the scratch set is generated, reduced
  /// to one mean per hub and discarded, so a short-window sweep that
  /// needs the static-relocation target (Fixture::cheapest_cluster)
  /// does not keep 28464 hours x hubs alive.
  [[nodiscard]] const std::vector<double>& study_rt_means() const;

  /// Hours covered by the current widest materialized *hourly* set (0
  /// before the first request). Lets tests assert that short-window
  /// scenarios did not pay for the full history.
  [[nodiscard]] std::int64_t materialized_hours() const noexcept {
    const auto it = current_.find(1);
    return it != current_.end() ? it->second->period.hours() : 0;
  }
  /// How many sets have been generated, across all resolutions
  /// (regenerations due to widening included).
  [[nodiscard]] std::size_t generations() const noexcept {
    return sets_.size();
  }
  /// How many times study_rt_means() actually walked the study period
  /// (0 before the first call; stays 1 after, memoization guard).
  // cebis-lint: allow(unreferenced-api) memoization probe
  [[nodiscard]] std::size_t study_mean_passes() const noexcept {
    return study_mean_passes_;
  }

 private:
  const PriceSet& store(std::unique_ptr<PriceSet> set) const;

  MarketSimulator sim_;
  // Grow-only: older, narrower sets are kept alive so references handed
  // out earlier never dangle.
  mutable std::vector<std::unique_ptr<PriceSet>> sets_;
  // Widest set so far per native interval (samples_per_hour -> set).
  mutable std::map<int, const PriceSet*> current_;
  // Memoized study-period per-hub rt means.
  mutable std::optional<std::vector<double>> study_rt_means_;
  mutable std::size_t study_mean_passes_ = 0;
};

}  // namespace cebis::market

#endif  // CEBIS_MARKET_LAZY_PRICE_HISTORY_H
