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

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

  /// Independent child stream for component `stream_id`.
  [[nodiscard]] Rng split(std::uint64_t stream_id) const {
    return Rng(splitmix64(seed_ ^ splitmix64(stream_id + 0x632be59bd9b4e019ULL)));
  }

  [[nodiscard]] double uniform() { return uniform_(engine_); }

  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) {
    return mean + stddev * normal_(engine_);
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
  std::uint64_t seed_;
  std::mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

}  // namespace cebis::stats

#endif  // CEBIS_STATS_RNG_H
