#include "storage/policy.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cebis::storage {

namespace {

template <typename Config>
Config config_or_default(const PolicyConfig& config, std::string_view policy) {
  if (std::holds_alternative<std::monostate>(config)) return Config{};
  if (const auto* cfg = std::get_if<Config>(&config)) return *cfg;
  throw std::invalid_argument(std::string(policy) +
                              ": policy config holds the wrong alternative");
}

/// An intent large enough that the battery's own power/energy limits
/// always bind first.
double unbounded(const PolicyContext& ctx) {
  const BatteryParams& p = ctx.battery->params();
  return (std::max(p.max_charge, p.max_discharge) * ctx.dt).value() +
         p.capacity.value();
}

class ArbitragePolicy final : public ChargePolicy {
 public:
  explicit ArbitragePolicy(const ArbitrageConfig& cfg) : cfg_(cfg) {
    if (cfg.charge_below > cfg.discharge_above) {
      throw std::invalid_argument(
          "arbitrage: charge_below must not exceed discharge_above");
    }
  }

  double decide(const PolicyContext& ctx) override {
    if (ctx.price_usd_per_mwh < cfg_.charge_below.value()) return unbounded(ctx);
    if (ctx.price_usd_per_mwh > cfg_.discharge_above.value()) {
      return -unbounded(ctx);
    }
    return 0.0;
  }

 private:
  ArbitrageConfig cfg_;
};

class PeakShavingPolicy final : public ChargePolicy {
 public:
  explicit PeakShavingPolicy(const PeakShavingConfig& cfg) : cfg_(cfg) {
    if (cfg.window_hours <= 0.0) {
      throw std::invalid_argument("peak-shaving: window_hours must be positive");
    }
    if (cfg.target_margin <= 0.0) {
      throw std::invalid_argument("peak-shaving: target_margin must be positive");
    }
  }

  void begin(const BatteryParams&) override { have_mean_ = false; }

  double decide(const PolicyContext& ctx) override {
    const double load_mw = ctx.load_mwh / ctx.dt.value();
    if (!have_mean_) {
      mean_mw_ = load_mw;
      have_mean_ = true;
    } else {
      const double alpha = std::min(1.0, ctx.dt.value() / cfg_.window_hours);
      mean_mw_ += alpha * (load_mw - mean_mw_);
    }
    const double target_mw = mean_mw_ * cfg_.target_margin;
    // Above target: shave the excess from the battery. Below: refill
    // only up to the target, so charging never creates a new peak.
    return (target_mw - load_mw) * ctx.dt.value();
  }

 private:
  PeakShavingConfig cfg_;
  double mean_mw_ = 0.0;
  bool have_mean_ = false;
};

class LyapunovPolicy final : public ChargePolicy {
 public:
  explicit LyapunovPolicy(const LyapunovConfig& cfg) : cfg_(cfg) {
    if (cfg.theta_fraction <= 0.0 || cfg.theta_fraction > 1.0) {
      throw std::invalid_argument("lyapunov: theta_fraction outside (0, 1]");
    }
    if (cfg.v <= 0.0 && cfg.reference_price.value() <= 0.0) {
      throw std::invalid_argument(
          "lyapunov: reference_price must be positive when v is auto");
    }
    if (cfg.band_low <= 0.0 || cfg.band_high < cfg.band_low) {
      throw std::invalid_argument(
          "lyapunov: band needs 0 < band_low <= band_high");
    }
    if (cfg.price_window_hours <= 0.0) {
      throw std::invalid_argument(
          "lyapunov: price_window_hours must be positive");
    }
  }

  void begin(const BatteryParams& battery) override {
    theta_ = battery.capacity.value() * cfg_.theta_fraction;
    v_ = cfg_.v > 0.0 ? cfg_.v : theta_ / cfg_.reference_price.value();
    have_mean_ = false;
    if (cfg_.band_low >
        cfg_.band_high * battery.round_trip_efficiency * (1.0 + 1e-9)) {
      throw std::invalid_argument(
          "lyapunov: band loses money at this round-trip efficiency "
          "(band_low > eta * band_high)");
    }
  }

  double decide(const PolicyContext& ctx) override {
    // Track the local price level first so even a zero-capacity battery
    // keeps a consistent view.
    if (!have_mean_) {
      mean_price_ = ctx.price_usd_per_mwh;
      have_mean_ = true;
    } else {
      const double alpha =
          std::min(1.0, ctx.dt.value() / cfg_.price_window_hours);
      mean_price_ += alpha * (ctx.price_usd_per_mwh - mean_price_);
    }
    if (v_ <= 0.0) return 0.0;  // zero-capacity battery: nothing to trade

    const double eta = ctx.battery->params().round_trip_efficiency;
    const double gap = theta_ - ctx.battery->soc().value();  // -X
    const double charge_thr =
        std::min(gap * eta / v_, cfg_.band_low * mean_price_);
    const double discharge_thr =
        std::max(gap / v_, cfg_.band_high * mean_price_);
    if (ctx.price_usd_per_mwh < charge_thr) return unbounded(ctx);
    if (ctx.price_usd_per_mwh > discharge_thr) return -unbounded(ctx);
    return 0.0;
  }

 private:
  LyapunovConfig cfg_;
  double theta_ = 0.0;
  double v_ = 0.0;
  double mean_price_ = 0.0;
  bool have_mean_ = false;
};

}  // namespace

std::unique_ptr<ChargePolicy> make_policy(std::string_view name,
                                          const PolicyConfig& config) {
  if (name == "arbitrage") {
    return std::make_unique<ArbitragePolicy>(
        config_or_default<ArbitrageConfig>(config, name));
  }
  if (name == "peak-shaving") {
    return std::make_unique<PeakShavingPolicy>(
        config_or_default<PeakShavingConfig>(config, name));
  }
  if (name == "lyapunov") {
    return std::make_unique<LyapunovPolicy>(
        config_or_default<LyapunovConfig>(config, name));
  }
  throw std::invalid_argument("make_policy: unknown policy '" +
                              std::string(name) + "'");
}

}  // namespace cebis::storage
