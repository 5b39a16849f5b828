#ifndef CEBIS_BASE_UNITS_H
#define CEBIS_BASE_UNITS_H

// Strong unit types for the quantities that flow through cebis.
//
// The paper mixes $/MWh prices, MWh energies, Watt-level server powers,
// km distances and hits/sec demand. Mixing those up silently is the
// classic source of simulation bugs, so each gets its own arithmetic
// type. Cross-unit products that are physically meaningful (price x
// energy = money, power x time = energy, ...) are provided as free
// functions/operators below.

#include <cmath>
#include <compare>
#include <cstdint>

namespace cebis {

/// CRTP base holding a raw double. Derived types get value semantics,
/// ordering, and same-unit linear arithmetic; anything else must be an
/// explicit named operation.
template <class Derived>
class Quantity {
 public:
  constexpr Quantity() noexcept = default;
  constexpr explicit Quantity(double value) noexcept : value_(value) {}

  [[nodiscard]] constexpr double value() const noexcept { return value_; }

  friend constexpr auto operator<=>(const Quantity&, const Quantity&) = default;

  friend constexpr Derived operator+(Derived a, Derived b) noexcept {
    return Derived{a.value_ + b.value_};
  }
  friend constexpr Derived operator-(Derived a, Derived b) noexcept {
    return Derived{a.value_ - b.value_};
  }
  friend constexpr Derived operator-(Derived a) noexcept { return Derived{-a.value_}; }
  friend constexpr Derived operator*(Derived a, double s) noexcept {
    return Derived{a.value_ * s};
  }
  friend constexpr Derived operator*(double s, Derived a) noexcept {
    return Derived{s * a.value_};
  }
  friend constexpr Derived operator/(Derived a, double s) noexcept {
    return Derived{a.value_ / s};
  }
  /// Ratio of two same-unit quantities is a plain number.
  friend constexpr double operator/(Derived a, Derived b) noexcept {
    return a.value_ / b.value_;
  }
  constexpr Derived& operator+=(Derived b) noexcept {
    value_ += b.value_;
    return static_cast<Derived&>(*this);
  }
  constexpr Derived& operator-=(Derived b) noexcept {
    value_ -= b.value_;
    return static_cast<Derived&>(*this);
  }
  constexpr Derived& operator*=(double s) noexcept {
    value_ *= s;
    return static_cast<Derived&>(*this);
  }

 private:
  double value_ = 0.0;
};

/// US dollars.
class Usd : public Quantity<Usd> {
 public:
  using Quantity::Quantity;
};

/// Wholesale electricity price, $ per megawatt-hour.
class UsdPerMwh : public Quantity<UsdPerMwh> {
 public:
  using Quantity::Quantity;
};

/// Electrical energy, megawatt-hours.
class MegawattHours : public Quantity<MegawattHours> {
 public:
  using Quantity::Quantity;
};

/// Electrical power, watts. Server powers are naturally expressed in W;
/// cluster/fleet powers reach MW but stay comfortably inside a double.
class Watts : public Quantity<Watts> {
 public:
  using Quantity::Quantity;
};

/// Geographic distance, kilometres.
class Km : public Quantity<Km> {
 public:
  using Quantity::Quantity;
};

/// Client demand, hits per second (the Akamai data's load unit).
class HitsPerSec : public Quantity<HitsPerSec> {
 public:
  using Quantity::Quantity;
};

/// A span of time, hours (simulation steps are 5 min = 1/12 h).
class Hours : public Quantity<Hours> {
 public:
  using Quantity::Quantity;
};

/// Carbon emissions, kilograms of CO2.
class KgCo2 : public Quantity<KgCo2> {
 public:
  using Quantity::Quantity;
};

/// Carbon intensity of delivered electricity, kg CO2 per MWh.
class KgCo2PerMwh : public Quantity<KgCo2PerMwh> {
 public:
  using Quantity::Quantity;
};

// --- physically meaningful cross-unit products -------------------------

/// price x energy = money.
[[nodiscard]] constexpr Usd operator*(UsdPerMwh p, MegawattHours e) noexcept {
  return Usd{p.value() * e.value()};
}
[[nodiscard]] constexpr Usd operator*(MegawattHours e, UsdPerMwh p) noexcept {
  return p * e;
}

/// power x time = energy (W x h -> MWh).
[[nodiscard]] constexpr MegawattHours operator*(Watts p, Hours t) noexcept {
  return MegawattHours{p.value() * t.value() / 1e6};
}
[[nodiscard]] constexpr MegawattHours operator*(Hours t, Watts p) noexcept {
  return p * t;
}

/// intensity x energy = emissions.
[[nodiscard]] constexpr KgCo2 operator*(KgCo2PerMwh i, MegawattHours e) noexcept {
  return KgCo2{i.value() * e.value()};
}
[[nodiscard]] constexpr KgCo2 operator*(MegawattHours e, KgCo2PerMwh i) noexcept {
  return i * e;
}

/// The 5-minute sampling interval used by the Akamai traffic data.
inline constexpr Hours kFiveMinutes{5.0 / 60.0};
inline constexpr Hours kOneHour{1.0};

}  // namespace cebis

#endif  // CEBIS_BASE_UNITS_H
