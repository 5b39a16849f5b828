#include "core/price_aware_router.h"

#include <algorithm>
#include <numeric>
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

  const std::size_t states = distances.state_count();
  candidates_.reserve(states);
  dist_pos_.resize(states * cluster_count_);
  std::vector<double> distance_km(cluster_count_);
  for (std::size_t s = 0; s < states; ++s) {
    const StateId state{static_cast<std::int32_t>(s)};
    StateCandidates sc;
    sc.by_distance.resize(cluster_count_);
    for (std::size_t c = 0; c < cluster_count_; ++c) sc.by_distance[c] = c;
    std::sort(sc.by_distance.begin(), sc.by_distance.end(),
              [&](std::size_t a, std::size_t b) {
                return distances.distance(state, a) < distances.distance(state, b);
              });
    for (std::size_t i = 0; i < cluster_count_; ++i) {
      distance_km[i] = distances.distance(state, sc.by_distance[i]).value();
      dist_pos_[s * cluster_count_ + sc.by_distance[i]] =
          static_cast<std::uint32_t>(i);
    }
    // Candidate set: clusters within the threshold; if none, the closest
    // cluster plus anything within nearby_slack of it.
    std::size_t within = 0;
    while (within < cluster_count_ &&
           distance_km[within] <= config_.distance_threshold.value()) {
      ++within;
    }
    if (within == 0) {
      const double anchor = distance_km[0];
      within = 1;
      while (within < cluster_count_ &&
             distance_km[within] <= anchor + config_.nearby_slack.value()) {
        ++within;
      }
    }
    sc.within_threshold = within;
    candidates_.push_back(std::move(sc));
  }

  // Plan layout: each state's orders are fixed-width rows of one slot
  // per cluster. An in-threshold order shorter than its row leaves a
  // spare slot of its own, which fill_order() may write past the kept
  // clusters; orders are filled lazily and in any order, so no fill may
  // reach into another state's row.
  head_.resize(states);
  main_order_.resize(states * cluster_count_);
  main_epoch_.assign(states, -1);
  full_order_.resize(states * cluster_count_);
  full_epoch_.assign(states, -1);
  price_rank_.resize(cluster_count_);
  strict_limit_.resize(cluster_count_);
  leftovers_.reserve(states);
}

void PriceAwareRouter::fill_order(std::size_t state, std::size_t count,
                                  std::uint32_t* out) const {
  const std::uint32_t* pos = dist_pos_.data() + state * cluster_count_;
  // Walk the price ranking and keep the state's first `count` clusters
  // by distance. Every cluster is written and the cursor advances only
  // past a kept one, so the filter has no data-dependent branch.
  std::size_t n = 0;
  for (const std::uint32_t c : price_rank_) {
    out[n] = c;
    n += static_cast<std::size_t>(pos[c] < count);
  }
  if (!rank_has_ties_) return;
  // Equal prices: closer first, the order a stable sort of the distance
  // order by price leaves them in.
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t c = out[i];
    std::size_t j = i;
    while (j > 0 && plan_price_[out[j - 1]] == plan_price_[c] &&
           pos[out[j - 1]] > pos[c]) {
      out[j] = out[j - 1];
      --j;
    }
    out[j] = c;
  }
}

void PriceAwareRouter::rebuild_orders(std::span<const double> price) {
  plan_price_.assign(price.begin(), price.end());
  ++plan_rebuilds_;
  // Rank the clusters by price once; every state's order is a filter of
  // this ranking.
  const auto by_price = [this](std::uint32_t a, std::uint32_t b) {
    return plan_price_[a] < plan_price_[b];
  };
  const auto tied = [this](std::uint32_t a, std::uint32_t b) {
    return plan_price_[a] == plan_price_[b];
  };
  const auto first = price_rank_.begin();
  const auto last = price_rank_.end();
  std::iota(first, last, std::uint32_t{0});
  std::sort(first, last, by_price);
  rank_has_ties_ = std::adjacent_find(first, last, tied) != last;

  // Each state's head, without filling its order: the state's cheapest
  // candidate is its first in the ranking or, among equal prices, the
  // closest - fill_order()'s first entry.
  const std::uint32_t* const rank_end = price_rank_.data() + cluster_count_;
  for (std::size_t s = 0; s < candidates_.size(); ++s) {
    const StateCandidates& sc = candidates_[s];
    const std::uint32_t* const pos = dist_pos_.data() + s * cluster_count_;
    const std::uint32_t* c = price_rank_.data();
    while (pos[*c] >= sc.within_threshold) ++c;
    std::uint32_t cheapest = *c;
    for (const std::uint32_t* t = c + 1;
         t != rank_end && plan_price_[*t] == plan_price_[*c]; ++t) {
      if (pos[*t] < pos[cheapest]) cheapest = *t;
    }

    // Price threshold: if the cheapest candidate saves less than tau
    // against the *nearest* candidate, prefer the nearest (distance is
    // the default objective; tiny differentials are ignored).
    const auto nearest = static_cast<std::uint32_t>(sc.by_distance.front());
    head_[s] = plan_price_[nearest] - plan_price_[cheapest] <
                       config_.price_threshold.value()
                   ? nearest
                   : cheapest;
  }
  plan_valid_ = true;
}

std::span<const std::uint32_t> PriceAwareRouter::main_order_for(
    std::size_t state) {
  // Built at most once per state per plan epoch: only for a state whose
  // head was short of room.
  const std::size_t n = candidates_[state].within_threshold;
  std::uint32_t* const row = main_order_.data() + state * cluster_count_;
  if (main_epoch_[state] != plan_rebuilds_) {
    main_epoch_[state] = plan_rebuilds_;
    fill_order(state, n, row);
    std::uint32_t* const head = std::find(row, row + n, head_[state]);
    std::rotate(row, head, head + 1);  // head to the front
  }
  return {row, n};
}

std::span<const std::uint32_t> PriceAwareRouter::full_order_for(std::size_t state) {
  // Phase-2 order: every cluster, in the same price order with the same
  // distance tie-break. Built at most once per state per plan epoch.
  std::uint32_t* const row = full_order_.data() + state * cluster_count_;
  if (full_epoch_[state] != plan_rebuilds_) {
    full_epoch_[state] = plan_rebuilds_;
    fill_order(state, cluster_count_, row);
  }
  return {row, cluster_count_};
}

void PriceAwareRouter::route(const RoutingContext& ctx, Allocation& out) {
  if (ctx.demand.size() != candidates_.size() ||
      ctx.price.size() != cluster_count_ || ctx.capacity.size() != cluster_count_) {
    throw std::invalid_argument("PriceAwareRouter::route: context size mismatch");
  }

  // Rebuild the candidate orders only when prices moved. The limits
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
  leftovers_.clear();

  for (std::size_t s = 0; s < candidates_.size(); ++s) {
    double remaining = ctx.demand[s];
    if (remaining <= 0.0) continue;
    // The head takes the whole demand whenever it has room for it: the
    // greedy pass below would place it all there and stop.
    const std::uint32_t head = head_[s];
    if (strict_limit_[head] - out.cluster_total(head) >= remaining) {
      out.add(s, head, remaining);
      continue;
    }
    const StateCandidates& sc = candidates_[s];
    const std::size_t n = sc.within_threshold;
    const std::span<const std::uint32_t> order = main_order_for(s);

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

    if (remaining > 0.0) leftovers_.push_back(Leftover{s, remaining});
  }

  // Phase 2: the strictly-limited system is full - this is a genuine
  // demand peak. Spend burst budget, cheapest burstable cluster first,
  // then fall back to raw capacity, and finally overload the closest
  // cluster (the engine counts that as an overflow).
  for (auto& [s, remaining] : leftovers_) {
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

