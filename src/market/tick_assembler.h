#ifndef CEBIS_MARKET_TICK_ASSEMBLER_H
#define CEBIS_MARKET_TICK_ASSEMBLER_H

// Incremental tick-to-PriceSeries assembly for the live service mode.
//
// A live session cannot hand the engine a finished PriceSet - the
// settlements arrive one (hub, interval, price) tick at a time. The
// assembler pre-sizes a native-interval PriceSet over the session's
// priced window (every tracked hub gets a series filled with NaN
// placeholders) and writes each tick into place, tracking the longest
// fully-priced prefix across the tracked hubs. The LiveEngine only
// advances the simulation into intervals below sealed_end(), so the
// engine never reads a placeholder; because assembly is deterministic
// in the tick values alone, replaying the recorded ticks through a
// second assembler reproduces the exact PriceSet - the first half of
// the replay-equals-live contract (src/service/).
//
// Discipline: ticks must arrive per hub in strictly increasing interval
// order with no gaps (the natural shape of a settlement stream), only
// for tracked hubs and with finite prices; anything else throws
// immediately rather than leaving a NaN the engine would later read.

#include <cstdint>
#include <span>
#include <vector>

#include "base/ids.h"
#include "base/simtime.h"
#include "market/price_series.h"

namespace cebis::market {

class TickAssembler {
 public:
  /// Pre-sizes a PriceSet over `priced` at `samples_per_hour` for
  /// `hub_count` hubs; ticks are accepted only for `tracked` hubs
  /// (typically the session clusters' hubs - untracked hubs keep empty
  /// series, like hubs without an rt market). Throws
  /// std::invalid_argument on an empty window/tracked set, a
  /// samples_per_hour that does not divide the hour, or a tracked hub
  /// outside hub_count.
  TickAssembler(Period priced, int samples_per_hour, std::size_t hub_count,
                std::vector<HubId> tracked);

  /// Ingests one settlement: `interval` is the absolute native interval
  /// index, hour * samples_per_hour + sub. Throws std::invalid_argument
  /// for an untracked hub, an interval outside the priced window, an
  /// out-of-order/duplicate interval for the hub, or a NaN/inf price.
  void add(HubId hub, std::int64_t interval, double price);

  /// One-past-the-last absolute interval priced by EVERY tracked hub
  /// (the simulation may advance through intervals below this).
  [[nodiscard]] std::int64_t sealed_end() const noexcept;

  /// First absolute interval of the priced window.
  [[nodiscard]] std::int64_t first_interval() const noexcept {
    return priced_.begin * samples_per_hour_;
  }

  [[nodiscard]] const PriceSet& set() const noexcept { return set_; }
  [[nodiscard]] int samples_per_hour() const noexcept { return samples_per_hour_; }
  [[nodiscard]] std::int64_t ticks() const noexcept { return ticks_; }

  /// The hubs ticks are accepted for, and - parallel to it - the next
  /// absolute interval each expects. A hub whose next interval trails
  /// sealed_end() is the gap stalling the seal (observability: the live
  /// engine publishes per-hub lag from these).
  [[nodiscard]] std::span<const HubId> tracked() const noexcept {
    return tracked_;
  }
  [[nodiscard]] std::span<const std::int64_t> next_intervals() const noexcept {
    return next_;
  }

 private:
  Period priced_;
  int samples_per_hour_;
  std::vector<HubId> tracked_;
  /// Next expected absolute interval per tracked hub (parallel to
  /// tracked_).
  std::vector<std::int64_t> next_;
  PriceSet set_;
  std::int64_t ticks_ = 0;
};

}  // namespace cebis::market

#endif  // CEBIS_MARKET_TICK_ASSEMBLER_H
