#include "market/market_simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "geo/latlon.h"

namespace cebis::market {

namespace {

// Sub-stream ids for seed derivation; keeping them distinct means adding
// draws to one component never shifts another's stream.
constexpr std::uint64_t kStreamNational = 1;
constexpr std::uint64_t kStreamRegional = 10;   // + rto
constexpr std::uint64_t kStreamRegionalFast = 30;  // + rto
constexpr std::uint64_t kStreamLocal = 100;     // + rto
constexpr std::uint64_t kStreamSpike = 300;     // + hub
constexpr std::uint64_t kStreamRtoEvent = 400;  // + rto
constexpr std::uint64_t kStreamDayAhead = 500;  // + hub
constexpr std::uint64_t kStreamFiveMin = 600;   // + hub
constexpr std::uint64_t kStreamMidC = 700;
constexpr std::uint64_t kStreamMicro = 800;  // + hub
constexpr std::uint64_t kStreamScarcity = 900;  // + rto

[[nodiscard]] double innovation_sigma(double stationary_sigma, double phi) {
  return stationary_sigma * std::sqrt(std::max(0.0, 1.0 - phi * phi));
}

/// Intra-hour AR(1) parameters time-rescaled from the 5-minute
/// calibration to `samples_per_hour` samples: one sample spans
/// k = 12 / samples_per_hour five-minute units, so persistence is
/// phi^k and the per-sample spike probability is the complement of k
/// spike-free units. At 12 samples per hour this is the calibration
/// itself (bit-for-bit, no pow round-trip).
struct SubHourlyParams {
  double phi;
  double spike_rate;
  double inno;

  SubHourlyParams(const FiveMinParams& fm, int samples_per_hour) {
    const double k = 12.0 / static_cast<double>(samples_per_hour);
    phi = samples_per_hour == 12 ? fm.phi : std::pow(fm.phi, k);
    spike_rate = samples_per_hour == 12
                     ? fm.spike_rate
                     : 1.0 - std::pow(1.0 - fm.spike_rate, k);
    inno = innovation_sigma(fm.sigma, phi);
  }
};

void expect_divides_hour(int samples_per_hour, const char* who) {
  if (!divides_hour(samples_per_hour)) {
    throw std::invalid_argument(std::string(who) +
                                ": samples_per_hour must divide 60");
  }
}

/// Validates a sub-hourly view request: a known hub, an interval
/// dividing the hour and an hourly-sampled base series.
void expect_sub_hourly_request(const HubRegistry& hubs, HubId hub,
                               const HourlySeries& hourly,
                               int samples_per_hour, const char* who) {
  if (!hub.valid() || hub.index() >= hubs.size()) {
    throw std::out_of_range(std::string(who) + ": bad hub");
  }
  expect_divides_hour(samples_per_hour, who);
  if (hourly.samples_per_hour() != 1) {
    throw std::invalid_argument(std::string(who) +
                                ": base series must be hourly");
  }
}

}  // namespace

MarketSimulator::MarketSimulator(const HubRegistry& hubs, PriceModelParams params,
                                 std::uint64_t seed)
    : hubs_(hubs), params_(std::move(params)), seed_(seed) {
  rto_chol_.resize(kRtoCount);
  rto_members_.resize(kRtoCount);
  for (Rto rto : market_rtos()) {
    const auto members = hubs_.hubs_in(rto);
    auto& ids = rto_members_[static_cast<std::size_t>(rto)];
    ids.assign(members.begin(), members.end());
    if (ids.empty()) continue;
    stats::Matrix dist(ids.size(), ids.size(), 0.0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = 0; j < ids.size(); ++j) {
        dist.at(i, j) =
            geo::haversine(hubs_.info(ids[i]).location, hubs_.info(ids[j]).location)
                .value();
      }
    }
    const stats::Matrix kernel =
        stats::exponential_kernel(dist, params_.lambda_for(rto), 1e-6);
    rto_chol_[static_cast<std::size_t>(rto)] = stats::cholesky(kernel);
  }
}

PriceSet MarketSimulator::generate(const Period& period) const {
  const Period study = study_period();
  if (period.begin < study.begin || period.end < period.begin) {
    throw std::invalid_argument("MarketSimulator::generate: period before study epoch");
  }

  const std::size_t hub_count = hubs_.size();
  const auto want = [&](HourIndex t) { return period.contains(t); };
  const auto n_out = static_cast<std::size_t>(period.hours());

  std::vector<std::vector<double>> rt(hub_count);
  std::vector<std::vector<double>> da(hub_count);
  for (HubId id : hubs_.hourly_hubs()) {
    rt[id.index()].reserve(n_out);
    da[id.index()].reserve(n_out);
  }

  const FactorParams& fp = params_.factors;
  const SpikeParams& sp = params_.spikes;

  stats::Rng base(seed_);
  stats::Rng rng_nat = base.split(kStreamNational);
  std::vector<stats::Rng> rng_reg;
  std::vector<stats::Rng> rng_loc;
  std::vector<stats::Rng> rng_evt;
  std::vector<stats::Rng> rng_reg_fast;
  std::vector<stats::Rng> rng_scarce;
  for (int r = 0; r < kRtoCount; ++r) {
    rng_reg.push_back(base.split(kStreamRegional + static_cast<std::uint64_t>(r)));
    rng_reg_fast.push_back(
        base.split(kStreamRegionalFast + static_cast<std::uint64_t>(r)));
    rng_loc.push_back(base.split(kStreamLocal + static_cast<std::uint64_t>(r)));
    rng_evt.push_back(base.split(kStreamRtoEvent + static_cast<std::uint64_t>(r)));
    rng_scarce.push_back(base.split(kStreamScarcity + static_cast<std::uint64_t>(r)));
  }
  std::vector<stats::Rng> rng_spike;
  std::vector<stats::Rng> rng_da;
  std::vector<stats::Rng> rng_micro;
  for (std::size_t h = 0; h < hub_count; ++h) {
    rng_spike.push_back(base.split(kStreamSpike + h));
    rng_da.push_back(base.split(kStreamDayAhead + h));
    rng_micro.push_back(base.split(kStreamMicro + h));
  }

  // Factor state, initialized at the stationary distribution.
  double national = rng_nat.normal(0.0, fp.sigma_national);
  std::vector<double> regional(kRtoCount, 0.0);
  std::vector<double> regional_fast(kRtoCount, 0.0);
  for (Rto rto : market_rtos()) {
    auto& r = regional[static_cast<std::size_t>(rto)];
    r = rng_reg[static_cast<std::size_t>(rto)].normal(0.0, fp.sigma_regional);
    auto& rf = regional_fast[static_cast<std::size_t>(rto)];
    rf = rng_reg_fast[static_cast<std::size_t>(rto)].normal(0.0, fp.sigma_regional_fast);
  }
  std::vector<double> local(hub_count, 0.0);
  for (Rto rto : market_rtos()) {
    const auto& ids = rto_members_[static_cast<std::size_t>(rto)];
    auto& rng = rng_loc[static_cast<std::size_t>(rto)];
    const auto& chol = rto_chol_[static_cast<std::size_t>(rto)];
    std::vector<double> z(ids.size());
    for (auto& v : z) v = rng.normal();
    const std::vector<double> corr = chol.mul(z);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      local[ids[i].index()] =
          corr[i] * fp.sigma_local * hubs_.info(ids[i]).vol_scale;
    }
  }
  std::vector<double> spike(hub_count, 0.0);
  std::vector<double> scarcity(hub_count, 0.0);

  // Day-ahead factor snapshot, refreshed at each (epoch) day boundary.
  double da_nat = national;
  std::vector<double> da_reg = regional;

  const double nat_inno = innovation_sigma(fp.sigma_national, fp.phi_national);
  const double reg_inno = innovation_sigma(fp.sigma_regional, fp.phi_regional);
  const double reg_fast_inno =
      innovation_sigma(fp.sigma_regional_fast, fp.phi_regional_fast);
  const double loc_inno_unit = std::sqrt(std::max(0.0, 1.0 - fp.phi_local * fp.phi_local));

  for (HourIndex t = study.begin; t < period.end; ++t) {
    // --- factor evolution --------------------------------------------
    national = fp.phi_national * national + rng_nat.normal(0.0, nat_inno);
    for (Rto rto : market_rtos()) {
      auto& r = regional[static_cast<std::size_t>(rto)];
      r = fp.phi_regional * r +
          rng_reg[static_cast<std::size_t>(rto)].normal(0.0, reg_inno);
      auto& rf = regional_fast[static_cast<std::size_t>(rto)];
      rf = fp.phi_regional_fast * rf +
           rng_reg_fast[static_cast<std::size_t>(rto)].normal(0.0, reg_fast_inno);
    }
    for (Rto rto : market_rtos()) {
      const auto& ids = rto_members_[static_cast<std::size_t>(rto)];
      if (ids.empty()) continue;
      auto& rng = rng_loc[static_cast<std::size_t>(rto)];
      const auto& chol = rto_chol_[static_cast<std::size_t>(rto)];
      std::vector<double> z(ids.size());
      for (auto& v : z) v = rng.normal();
      const std::vector<double> corr = chol.mul(z);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const double scale = fp.sigma_local * hubs_.info(ids[i]).vol_scale;
        auto& l = local[ids[i].index()];
        l = fp.phi_local * l + corr[i] * scale * loc_inno_unit;
      }
    }

    if (hour_of_day(t) == 0) {
      da_nat = national;
      da_reg = regional;
    }

    // --- scarcity events (rare, sustained, near-cap) -------------------
    for (Rto rto : market_rtos()) {
      auto& rng = rng_scarce[static_cast<std::size_t>(rto)];
      const double rate = sp.scarcity_per_hour * params_.scarcity_scale_for(rto);
      if (rng.bernoulli(rate)) {
        const double mag = rng.uniform(sp.scarcity_lo, sp.scarcity_hi);
        for (HubId id : rto_members_[static_cast<std::size_t>(rto)]) {
          if (rng.bernoulli(0.9)) {
            scarcity[id.index()] = mag * rng.uniform(0.8, 1.2);
          }
        }
      }
    }
    for (HubId id : hubs_.hourly_hubs()) {
      auto& v = scarcity[id.index()];
      if (v != 0.0) {
        auto& rng = rng_scarce[static_cast<std::size_t>(hubs_.info(id).rto)];
        v = rng.bernoulli(sp.scarcity_persist) ? v * 0.9 : 0.0;
        if (v < 1.0) v = 0.0;
      }
    }

    // --- spikes -------------------------------------------------------
    for (Rto rto : market_rtos()) {
      auto& evt = rng_evt[static_cast<std::size_t>(rto)];
      if (evt.bernoulli(sp.rto_event_per_hour)) {
        const double mag =
            std::min(evt.pareto(sp.pareto_xm, sp.pareto_alpha), sp.magnitude_cap);
        for (HubId id : rto_members_[static_cast<std::size_t>(rto)]) {
          if (evt.bernoulli(sp.rto_participation)) {
            spike[id.index()] +=
                mag * evt.uniform(0.7, 1.0) * hubs_.info(id).spike_scale;
          }
        }
      }
    }
    for (HubId id : hubs_.hourly_hubs()) {
      auto& rng = rng_spike[id.index()];
      auto& j = spike[id.index()];
      if (j != 0.0) {
        j = rng.bernoulli(sp.persist) ? j * sp.decay : 0.0;
        if (std::abs(j) < 1.0) j = 0.0;
      }
      if (rng.bernoulli(sp.onset_per_hour * hubs_.info(id).spike_rate_scale)) {
        double mag = std::min(rng.pareto(sp.pareto_xm, sp.pareto_alpha),
                              sp.magnitude_cap) *
                     hubs_.info(id).spike_scale;
        if (rng.bernoulli(sp.p_negative)) mag = -mag * sp.negative_scale;
        j += mag;
      }
    }

    if (!want(t)) {
      // Still consume the per-hub micro/DA draws so output is invariant
      // to the requested window.
      for (HubId id : hubs_.hourly_hubs()) {
        (void)rng_micro[id.index()].normal();
        (void)rng_da[id.index()].normal();
      }
      continue;
    }

    // --- price assembly ------------------------------------------------
    for (HubId id : hubs_.hourly_hubs()) {
      const HubInfo& hub = hubs_.info(id);
      const double shape = deterministic_shape(t, hub.utc_offset_hours, hub.rto);
      const double slow =
          hub.beta_slow *
          (national + regional[static_cast<std::size_t>(hub.rto)]);
      const double fast =
          hub.beta_fast * (regional_fast[static_cast<std::size_t>(hub.rto)] +
                           local[id.index()]);
      const double micro = hub.beta_fast *
                           rng_micro[id.index()].normal(0.0, fp.micro_sigma *
                                                                 hub.vol_scale);
      // exp() of a zero-mean normal has mean exp(var/2); divide it out so
      // the hub's long-run level tracks base_price.
      const double bs2 = hub.beta_slow * hub.beta_slow;
      const double bf2 = hub.beta_fast * hub.beta_fast;
      const double var =
          bs2 * (fp.sigma_national * fp.sigma_national +
                 fp.sigma_regional * fp.sigma_regional) +
          bf2 * (fp.sigma_regional_fast * fp.sigma_regional_fast +
                 (fp.sigma_local * hub.vol_scale) * (fp.sigma_local * hub.vol_scale) +
                 (fp.micro_sigma * hub.vol_scale) * (fp.micro_sigma * hub.vol_scale));
      const double level =
          hub.base_price * shape * std::exp(slow + fast + micro - var / 2.0);
      double price = level + spike[id.index()] + scarcity[id.index()];
      price = std::clamp(price, params_.price_floor, params_.price_cap);
      rt[id.index()].push_back(price);

      // Day-ahead: previous-day factor snapshot, no spikes, mild noise.
      const double da_x =
          hub.beta_slow * (da_nat + da_reg[static_cast<std::size_t>(hub.rto)]);
      const double da_noise =
          rng_da[id.index()].normal(0.0, params_.day_ahead.noise_sigma);
      const double da_var = bs2 * (fp.sigma_national * fp.sigma_national +
                                   fp.sigma_regional * fp.sigma_regional) +
                            params_.day_ahead.noise_sigma * params_.day_ahead.noise_sigma;
      double da_price = hub.base_price * shape * params_.day_ahead.premium *
                        std::exp(da_x + da_noise - da_var / 2.0);
      da_price = std::clamp(da_price, 0.0, params_.price_cap);
      da[id.index()].push_back(da_price);
    }
  }

  PriceSet out;
  out.period = period;
  out.rt.resize(hub_count);
  out.da.resize(hub_count);
  for (HubId id : hubs_.hourly_hubs()) {
    out.rt[id.index()] = HourlySeries(period, std::move(rt[id.index()]));
    out.da[id.index()] = HourlySeries(period, std::move(da[id.index()]));
  }
  return out;
}

PriceSet MarketSimulator::generate(const Period& period,
                                   int samples_per_hour) const {
  expect_divides_hour(samples_per_hour, "MarketSimulator::generate");
  PriceSet set = generate(period);
  if (samples_per_hour == 1) return set;
  set.samples_per_hour = samples_per_hour;
  // Each hub's intra-hour process evolves from the study epoch (the
  // draws for hours before the window are consumed, not emitted), so
  // the output is invariant to the requested window.
  const std::int64_t warmup_hours = period.begin - study_period().begin;
  for (HubId id : hubs_.hourly_hubs()) {
    set.rt[id.index()] = intra_hour_view(id, set.rt[id.index()],
                                         samples_per_hour, warmup_hours);
  }
  return set;
}

PriceSeries MarketSimulator::sub_hourly_view(HubId hub,
                                             const HourlySeries& hourly,
                                             int samples_per_hour) const {
  expect_sub_hourly_request(hubs_, hub, hourly, samples_per_hour,
                            "sub_hourly_view");
  return intra_hour_view(hub, hourly, samples_per_hour, 0);
}

std::vector<double> MarketSimulator::sub_hourly_series(
    HubId hub, const HourlySeries& hourly, int samples_per_hour) const {
  expect_sub_hourly_request(hubs_, hub, hourly, samples_per_hour,
                            "sub_hourly_series");
  return intra_hour_samples(hub, hourly.values(), samples_per_hour, 0);
}

PriceSeries MarketSimulator::intra_hour_view(HubId hub,
                                             const HourlySeries& hourly,
                                             int samples_per_hour,
                                             std::int64_t warmup_hours) const {
  if (60 / samples_per_hour < hubs_.info(hub).rt_interval_minutes) {
    // The hub's market settles no finer than its native interval:
    // every sub-sample repeats the hourly settlement.
    std::vector<double> flat;
    flat.reserve(hourly.size() * static_cast<std::size_t>(samples_per_hour));
    for (const double hour_price : hourly.values()) {
      flat.insert(flat.end(), static_cast<std::size_t>(samples_per_hour),
                  hour_price);
    }
    return PriceSeries(hourly.period(), samples_per_hour, std::move(flat));
  }
  return PriceSeries(hourly.period(), samples_per_hour,
                     intra_hour_samples(hub, hourly.values(), samples_per_hour,
                                        warmup_hours));
}

std::vector<double> MarketSimulator::intra_hour_samples(
    HubId hub, std::span<const double> hourly, int samples_per_hour,
    std::int64_t warmup_hours) const {
  const FiveMinParams& fm = params_.five_min;
  const SubHourlyParams sub(fm, samples_per_hour);
  stats::Rng rng = stats::Rng(seed_).split(kStreamFiveMin + hub.index());
  std::vector<double> out;
  out.reserve(hourly.size() * static_cast<std::size_t>(samples_per_hour));
  double ar = 0.0;
  const std::int64_t hours =
      warmup_hours + static_cast<std::int64_t>(hourly.size());
  for (std::int64_t t = 0; t < hours; ++t) {
    // A warm-up hour makes exactly the draws an emitted hour makes.
    const bool emit = t >= warmup_hours;
    const double hour_price =
        emit ? hourly[static_cast<std::size_t>(t - warmup_hours)] : 0.0;
    for (int i = 0; i < samples_per_hour; ++i) {
      ar = sub.phi * ar + rng.normal(0.0, sub.inno);
      double p = hour_price * std::exp(ar - fm.sigma * fm.sigma / 2.0);
      if (rng.bernoulli(sub.spike_rate)) {
        p += rng.pareto(fm.spike_scale, 1.8);
      }
      if (emit) {
        out.push_back(std::clamp(p, params_.price_floor, params_.price_cap));
      }
    }
  }
  return out;
}

DailySeries MarketSimulator::daily_day_ahead_peak(const PriceSet& prices,
                                                  HubId hub) const {
  if (!hub.valid() || hub.index() >= hubs_.size()) {
    throw std::out_of_range("daily_day_ahead_peak: bad hub");
  }
  const HubInfo& info = hubs_.info(hub);
  DailySeries out;
  out.first_day = day_index(prices.period.begin);
  if (info.hourly_market) {
    out.values = prices.da[hub.index()].daily_peak_averages(info.utc_offset_hours);
    return out;
  }

  // Northwest (MID-C): no hourly market. Daily hydro-driven process with
  // low volatility, seasonal runoff dips, no gas-price exposure.
  stats::Rng rng = stats::Rng(seed_).split(kStreamMidC);
  const std::int64_t days = prices.period.hours() / 24;
  out.values.reserve(static_cast<std::size_t>(days));
  double ar = rng.normal(0.0, 0.12);
  // Evolve from the study epoch so overlapping windows agree.
  const std::int64_t first_epoch_day = day_index(study_period().begin);
  for (std::int64_t d = first_epoch_day; d < out.first_day + days; ++d) {
    ar = 0.92 * ar + rng.normal(0.0, 0.12 * std::sqrt(1.0 - 0.92 * 0.92));
    if (d < out.first_day) continue;
    const HourIndex noon = d * 24 + 12;
    const int mi = month_index(noon);
    const double price =
        info.base_price * hydro_seasonal_curve(mi) * std::exp(ar - 0.12 * 0.12 / 2.0);
    out.values.push_back(std::max(price, 1.0));
  }
  return out;
}

}  // namespace cebis::market
