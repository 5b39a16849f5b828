#include "market/lazy_price_history.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "stats/descriptive.h"

namespace cebis::market {

const PriceSet& LazyPriceHistory::store(std::unique_ptr<PriceSet> set) const {
  sets_.push_back(std::move(set));
  const PriceSet& stored = *sets_.back();
  current_[stored.samples_per_hour] = &stored;
  return stored;
}

const PriceSet& LazyPriceHistory::cover(Period need,
                                        int samples_per_hour) const {
  if (!divides_hour(samples_per_hour)) {
    throw std::invalid_argument(
        "LazyPriceHistory::cover: samples_per_hour must divide 60");
  }
  // Clamp to the study period: the generator refuses pre-epoch hours,
  // and hours past the study end were never priced under the eager
  // fixture either (access beyond the set throws, as before).
  const Period study = study_period();
  Period want{std::max(need.begin, study.begin), std::min(need.end, study.end)};
  if (want.end < want.begin) want.end = want.begin;

  const auto it = current_.find(samples_per_hour);
  const PriceSet* widest = it != current_.end() ? it->second : nullptr;
  if (widest != nullptr && widest->period.begin <= want.begin &&
      widest->period.end >= want.end) {
    return *widest;
  }

  Period window = want;
  if (widest != nullptr) {
    window.begin = std::min(window.begin, widest->period.begin);
    window.end = std::max(window.end, widest->period.end);
  }
  return store(
      std::make_unique<PriceSet>(sim_.generate(window, samples_per_hour)));
}

const std::vector<double>& LazyPriceHistory::study_rt_means() const {
  if (study_rt_means_.has_value()) return *study_rt_means_;
  ++study_mean_passes_;

  // Pick the cheapest exact source: the already-materialized full
  // hourly set if one exists, else a scratch generation of the study
  // period that is reduced to means and dropped - window-invariance
  // makes the scratch values byte-identical to full()'s, without
  // retaining 39 months in the history.
  const PriceSet* src = nullptr;
  std::unique_ptr<PriceSet> scratch;
  const auto it = current_.find(1);
  if (it != current_.end() && it->second->period == study_period()) {
    src = it->second;
  } else {
    scratch = std::make_unique<PriceSet>(sim_.generate(study_period(), 1));
    src = scratch.get();
  }

  std::vector<double> means(src->rt.size(),
                            std::numeric_limits<double>::infinity());
  for (std::size_t h = 0; h < src->rt.size(); ++h) {
    if (!src->rt[h].empty()) means[h] = stats::mean(src->rt[h].values());
  }
  study_rt_means_ = std::move(means);
  return *study_rt_means_;
}

}  // namespace cebis::market
