#ifndef CEBIS_STATS_RNG_H
#define CEBIS_STATS_RNG_H

// Deterministic random number generation.
//
// Every stochastic component in cebis (price factors, spikes, traffic
// noise, flash crowds, baseline-allocation affinity) draws from an Rng
// seeded explicitly by the caller. Derived streams are produced with
// split(), which mixes the parent seed with a stream id through
// splitmix64 so that sub-streams are statistically independent and - more
// importantly for the experiments - stable: adding a draw to one
// component never perturbs another component's stream.
//
// The engine is std::mt19937_64, but uniform() and normal() are this
// file's own code. They reproduce, bit for bit, what libstdc++ 12's
// std::uniform_real_distribution<double> and std::normal_distribution
// <double> make of the same engine, so every figure row pinned before
// they were written still holds:
//  - uniform(): generate_canonical<double, 53> over one 64-bit word
//    (canonical_from_word);
//  - normal(): the Marsaglia polar method, returning y * mult and
//    saving x * mult for the next call.
// libstdc++ converts each word to a double through a branch on its top
// bit, which random words mispredict half the time; the market and
// trace generators make hundreds of millions of these draws, so the
// conversion here is branch-free with the same rounding.
// tests/test_rng.cpp holds both draws to the std distributions. poisson()
// and index() still use std::poisson_distribution and
// std::uniform_int_distribution on the same engine.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

namespace cebis::stats {

/// splitmix64 finalizer; good avalanche behaviour for seed derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One 64-bit engine word as a double in [0, 1), exactly as libstdc++'s
/// generate_canonical<double, 53> makes it: the word rounded to the
/// nearest double, times 2^-64, and a result that rounded up to 1 (words
/// from 2^64 - 1024) kept at the largest double below 1. The two 32-bit
/// halves convert exactly and their sum rounds once, which is the
/// direct conversion's rounding without its branch on the top bit.
[[nodiscard]] inline double canonical_from_word(std::uint64_t word) noexcept {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(word >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(word));
  return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

  /// Independent child stream for component `stream_id`.
  [[nodiscard]] Rng split(std::uint64_t stream_id) const {
    return Rng(splitmix64(seed_ ^ splitmix64(stream_id + 0x632be59bd9b4e019ULL)));
  }

  [[nodiscard]] double uniform() { return canonical_from_word(engine_()); }

  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// std::normal_distribution<double>(0, 1)'s next value, scaled. Its
  /// final `+ 0.0` turns the -0.0 of an r2 of exactly 1 into +0.0.
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) {
    return mean + stddev * (standard_normal() + 0.0);
  }

  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  [[nodiscard]] int poisson(double mean) {
    std::poisson_distribution<int> d(mean);
    return d(engine_);
  }

  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy tail for
  /// price spikes); support [xm, inf).
  [[nodiscard]] double pareto(double xm, double alpha) {
    const double u = 1.0 - uniform();
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Integer in [0, n).
  [[nodiscard]] std::size_t index(std::size_t n) {
    std::uniform_int_distribution<std::size_t> d(0, n - 1);
    return d(engine_);
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  /// The polar method as libstdc++ 12 runs it: pairs in the unit disc,
  /// y * mult now and x * mult on the next call.
  double standard_normal() {
    if (saved_available_) {
      saved_available_ = false;
      return saved_;
    }
    double x;
    double y;
    double r2;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    saved_ = x * mult;
    saved_available_ = true;
    return y * mult;
  }

  std::uint64_t seed_;
  std::mt19937_64 engine_;
  double saved_ = 0.0;
  bool saved_available_ = false;
};

}  // namespace cebis::stats

#endif  // CEBIS_STATS_RNG_H
