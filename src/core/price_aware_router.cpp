#include "core/price_aware_router.h"

#include <algorithm>
#include <stdexcept>

namespace cebis::core {

PriceAwareRouter::PriceAwareRouter(const geo::DistanceModel& distances,
                                   std::size_t cluster_count,
                                   PriceAwareConfig config,
                                   const traffic::BaselineAllocation* fallback)
    : config_(config), cluster_count_(cluster_count), fallback_(fallback) {
  if (cluster_count_ == 0 || cluster_count_ > distances.site_count()) {
    throw std::invalid_argument("PriceAwareRouter: bad cluster count");
  }
  if (config_.distance_threshold.value() < 0.0) {
    throw std::invalid_argument("PriceAwareRouter: negative distance threshold");
  }

  candidates_.reserve(distances.state_count());
  for (std::size_t s = 0; s < distances.state_count(); ++s) {
    const StateId state{static_cast<std::int32_t>(s)};
    StateCandidates sc;
    sc.by_distance.resize(cluster_count_);
    for (std::size_t c = 0; c < cluster_count_; ++c) sc.by_distance[c] = c;
    std::sort(sc.by_distance.begin(), sc.by_distance.end(),
              [&](std::size_t a, std::size_t b) {
                return distances.distance(state, a) < distances.distance(state, b);
              });
    sc.distance_km.reserve(cluster_count_);
    for (std::size_t c : sc.by_distance) {
      sc.distance_km.push_back(distances.distance(state, c).value());
    }
    // Candidate set: clusters within the threshold; if none, the closest
    // cluster plus anything within nearby_slack of it.
    std::size_t within = 0;
    while (within < cluster_count_ &&
           sc.distance_km[within] <= config_.distance_threshold.value()) {
      ++within;
    }
    if (within == 0) {
      const double anchor = sc.distance_km[0];
      within = 1;
      while (within < cluster_count_ &&
             sc.distance_km[within] <= anchor + config_.nearby_slack.value()) {
        ++within;
      }
    }
    sc.within_threshold = within;
    candidates_.push_back(std::move(sc));
  }

  // Plan layout: each state's in-threshold candidates are a contiguous
  // slice of main_order_, every state's full cluster order a fixed-width
  // row of full_order_.
  main_offset_.resize(candidates_.size() + 1);
  main_offset_[0] = 0;
  for (std::size_t s = 0; s < candidates_.size(); ++s) {
    main_offset_[s + 1] = main_offset_[s] +
                          static_cast<std::uint32_t>(candidates_[s].within_threshold);
  }
  main_order_.resize(main_offset_.back());
  full_order_.resize(candidates_.size() * cluster_count_);
  full_epoch_.assign(candidates_.size(), -1);
  strict_limit_.resize(cluster_count_);
}

void PriceAwareRouter::rebuild_orders(std::span<const double> price) {
  plan_price_.assign(price.begin(), price.end());
  ++plan_rebuilds_;
  const auto by_price = [this](std::uint32_t a, std::uint32_t b) {
    return plan_price_[a] < plan_price_[b];
  };
  for (std::size_t s = 0; s < candidates_.size(); ++s) {
    const StateCandidates& sc = candidates_[s];
    const std::size_t n = sc.within_threshold;

    // Order candidates by price (ties: closer first). by_distance is
    // already distance-sorted, so a stable sort on price keeps the
    // distance tie-break.
    const auto main_begin =
        main_order_.begin() + static_cast<std::ptrdiff_t>(main_offset_[s]);
    const auto main_end = main_begin + static_cast<std::ptrdiff_t>(n);
    std::copy(sc.by_distance.begin(),
              sc.by_distance.begin() + static_cast<std::ptrdiff_t>(n), main_begin);
    std::stable_sort(main_begin, main_end, by_price);

    // Price threshold: if the cheapest candidate saves less than tau
    // against the *nearest* candidate, prefer the nearest (distance is
    // the default objective; tiny differentials are ignored).
    const auto nearest = static_cast<std::uint32_t>(sc.by_distance.front());
    if (plan_price_[nearest] - plan_price_[*main_begin] <
        config_.price_threshold.value()) {
      const auto it = std::find(main_begin, main_end, nearest);
      if (it != main_begin && it != main_end) {
        std::rotate(main_begin, it, it + 1);  // move nearest to the front
      }
    }
  }
  plan_valid_ = true;
}

std::span<const std::uint32_t> PriceAwareRouter::full_order_for(std::size_t state) {
  // Phase-2 order: every cluster, price-sorted with the same distance
  // tie-break. Built at most once per state per plan epoch.
  const auto begin =
      full_order_.begin() + static_cast<std::ptrdiff_t>(state * cluster_count_);
  if (full_epoch_[state] != plan_rebuilds_) {
    full_epoch_[state] = plan_rebuilds_;
    const StateCandidates& sc = candidates_[state];
    std::copy(sc.by_distance.begin(), sc.by_distance.end(), begin);
    std::stable_sort(begin, begin + static_cast<std::ptrdiff_t>(cluster_count_),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return plan_price_[a] < plan_price_[b];
                     });
  }
  return {full_order_.data() + state * cluster_count_, cluster_count_};
}

void PriceAwareRouter::route(const RoutingContext& ctx, Allocation& out) {
  if (ctx.demand.size() != candidates_.size() ||
      ctx.price.size() != cluster_count_ || ctx.capacity.size() != cluster_count_) {
    throw std::invalid_argument("PriceAwareRouter::route: context size mismatch");
  }

  // Re-sort the candidate orders only when prices moved. The limits
  // (capacity factors and 95/5 references can move mid-hour) and
  // can_burst (it flips as budgets exhaust) are read live every call.
  if (!plan_valid_ || !spans_equal(ctx.price, plan_price_)) {
    rebuild_orders(ctx.price);
  }
  for (std::size_t c = 0; c < cluster_count_; ++c) {
    strict_limit_[c] = ctx.p95_limit.empty()
                           ? ctx.capacity[c]
                           : std::min(ctx.capacity[c], ctx.p95_limit[c]);
  }

  out.clear();

  // The 95/5 reference acts as a hard cap during the main pass; bursts
  // (phase 2) are granted only to demand the strictly-limited system
  // cannot hold. This is what keeps the realized per-cluster 95th
  // percentiles at or below their baseline references: clusters exceed
  // the reference in at most the ~5% of intervals where total demand
  // genuinely requires it, never because cheap power attracted traffic.
  struct Leftover {
    std::size_t state;
    double amount;
  };
  std::vector<Leftover> leftovers;

  for (std::size_t s = 0; s < candidates_.size(); ++s) {
    double remaining = ctx.demand[s];
    if (remaining <= 0.0) continue;
    const StateCandidates& sc = candidates_[s];
    const std::size_t n = sc.within_threshold;
    const std::span<const std::uint32_t> order(main_order_.data() + main_offset_[s],
                                               n);

    // Greedy assignment with iterative spill on capacity / 95-5 limits,
    // in the plan's price order (nearest preference pre-applied).
    for (const std::uint32_t c : order) {
      if (remaining <= 0.0) break;
      const double room = strict_limit_[c] - out.cluster_total(c);
      if (room <= 0.0) continue;
      const double take = std::min(remaining, room);
      out.add(s, c, take);
      remaining -= take;
    }

    // Candidates full: hand the remainder back to the baseline pipeline
    // (when configured), still under strict limits.
    if (remaining > 0.0 && fallback_ != nullptr) {
      const StateId state{static_cast<std::int32_t>(s)};
      const double handed = remaining;
      for (std::size_t c = 0; c < cluster_count_ && remaining > 0.0; ++c) {
        const double w = fallback_->cluster_weight(state, c);
        if (w <= 0.0) continue;
        const double want = handed * w;
        const double room = strict_limit_[c] - out.cluster_total(c);
        const double take = std::min({remaining, want, std::max(0.0, room)});
        if (take > 0.0) {
          out.add(s, c, take);
          remaining -= take;
        }
      }
    }

    // Nearby demand exceeds the references: burst in-threshold clusters
    // with budget (cheapest first) before shipping traffic far away.
    // The per-interval budget check rations bursts to 5% of intervals,
    // which is exactly what 95/5 billing tolerates.
    if (remaining > 0.0 && !ctx.p95_limit.empty() && !ctx.can_burst.empty()) {
      for (const std::uint32_t c : order) {
        if (remaining <= 0.0) break;
        if (ctx.can_burst[c] == 0) continue;
        const double room = ctx.capacity[c] - out.cluster_total(c);
        if (room <= 0.0) continue;
        const double take = std::min(remaining, room);
        out.add(s, c, take);
        remaining -= take;
      }
    }

    // Spill outward by distance, still under strict limits.
    if (remaining > 0.0) {
      for (std::size_t i = n; i < cluster_count_ && remaining > 0.0; ++i) {
        const std::size_t c = sc.by_distance[i];
        const double room = strict_limit_[c] - out.cluster_total(c);
        if (room <= 0.0) continue;
        const double take = std::min(remaining, room);
        out.add(s, c, take);
        remaining -= take;
      }
    }

    if (remaining > 0.0) leftovers.push_back(Leftover{s, remaining});
  }

  // Phase 2: the strictly-limited system is full - this is a genuine
  // demand peak. Spend burst budget, cheapest burstable cluster first,
  // then fall back to raw capacity, and finally overload the closest
  // cluster (the engine counts that as an overflow).
  for (auto& [s, remaining] : leftovers) {
    const StateCandidates& sc = candidates_[s];
    if (!ctx.p95_limit.empty() && !ctx.can_burst.empty()) {
      for (const std::uint32_t c : full_order_for(s)) {
        if (remaining <= 0.0) break;
        if (ctx.can_burst[c] == 0) continue;
        const double room = ctx.capacity[c] - out.cluster_total(c);
        if (room <= 0.0) continue;
        const double take = std::min(remaining, room);
        out.add(s, c, take);
        remaining -= take;
      }
    }
    if (remaining > 0.0) {
      for (std::size_t i = 0; i < cluster_count_ && remaining > 0.0; ++i) {
        const std::size_t c = sc.by_distance[i];
        const double room = ctx.capacity[c] - out.cluster_total(c);
        if (room <= 0.0) continue;
        const double take = std::min(remaining, room);
        out.add(s, c, take);
        remaining -= take;
      }
    }
    if (remaining > 0.0) {
      out.add(s, sc.by_distance.front(), remaining);  // overload; engine counts it
    }
  }
}

}  // namespace cebis::core

