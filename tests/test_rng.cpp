// Deterministic RNG: same seed same stream, split independence, and
// sanity on the distribution shapes the market model relies on.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "stats/descriptive.h"
#include "stats/rng.h"

namespace cebis::stats {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitIsStableAndIndependent) {
  const Rng parent(7);
  Rng c1 = parent.split(3);
  Rng c1_again = parent.split(3);
  Rng c2 = parent.split(4);
  EXPECT_DOUBLE_EQ(c1.uniform(), c1_again.uniform());
  // Sibling streams should not be identical.
  Rng c1b = parent.split(3);
  (void)c1b.uniform();
  EXPECT_NE(c1b.uniform(), c2.uniform());
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(10.0, 20.0);
    EXPECT_GE(u, 10.0);
    EXPECT_LT(u, 20.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  std::vector<double> xs;
  xs.reserve(20000);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(5.0, 2.0));
  EXPECT_NEAR(mean(xs), 5.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ParetoSupportAndTail) {
  Rng rng(17);
  std::vector<double> xs;
  int above_double = 0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.pareto(20.0, 2.0);
    EXPECT_GE(x, 20.0);
    if (x > 40.0) ++above_double;
    xs.push_back(x);
  }
  // P(X > 2*xm) = (1/2)^alpha = 0.25 for alpha = 2.
  EXPECT_NEAR(above_double / 20000.0, 0.25, 0.02);
}

TEST(Rng, PoissonMean) {
  Rng rng(19);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += rng.poisson(3.5);
  EXPECT_NEAR(sum / 10000.0, 3.5, 0.1);
}

TEST(Rng, IndexInRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
}

#if defined(__GLIBCXX__)
/// An engine that returns one fixed word, to feed generate_canonical.
struct OneWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// uniform() and normal() are rng.h's own code. They must draw exactly
// what libstdc++'s distributions draw from the same engine, or every
// pinned figure row moves.
TEST(Rng, DrawsMatchLibstdcxxDistributions) {
  // The conversion on words whose rounding is at an edge: ties to even
  // at 2^53 + 1 and 2^63 + 1024 (both down), up at 2^63 + 1025, the
  // largest word that stays below 1 (2^64 - 2048), and 2^64 - 1, which
  // rounds to 1 and must come back as the largest double below it.
  const std::uint64_t max = ~std::uint64_t{0};
  for (const std::uint64_t word :
       {std::uint64_t{0}, (std::uint64_t{1} << 53) + 1,
        (std::uint64_t{1} << 63) + 1024, (std::uint64_t{1} << 63) + 1025,
        max - 2047, max}) {
    OneWord engine{word};
    EXPECT_EQ(bits(canonical_from_word(word)),
              bits(std::generate_canonical<double, 53>(engine)))
        << "word " << word;
  }
  EXPECT_EQ(canonical_from_word(max), std::nextafter(1.0, 0.0));

  // A seeded random mix of every draw built on uniform() and normal(),
  // against a twin engine run through one std distribution of each kind,
  // so the saved second normal carries across the other calls.
  for (const std::uint64_t seed : {1ULL, 2009ULL, 0x9e3779b97f4a7c15ULL}) {
    Rng rng(seed);
    std::mt19937_64 twin(splitmix64(seed));
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    std::normal_distribution<double> normal(0.0, 1.0);
    std::mt19937_64 pick(seed ^ 0x5bd1e995ULL);
    for (int i = 0; i < 1000000; ++i) {
      double got = 0.0;
      double want = 0.0;
      switch (pick() % 6) {
        case 0:
          got = rng.uniform();
          want = uniform(twin);
          break;
        case 1:
          got = rng.uniform(-3.0, 7.5);
          want = -3.0 + (7.5 - -3.0) * uniform(twin);
          break;
        case 2:
          got = rng.normal();
          want = 0.0 + 1.0 * normal(twin);
          break;
        case 3:
          got = rng.normal(40.0, 12.5);
          want = 40.0 + 12.5 * normal(twin);
          break;
        case 4:
          got = rng.bernoulli(0.3) ? 1.0 : 0.0;
          want = uniform(twin) < 0.3 ? 1.0 : 0.0;
          break;
        default:
          got = rng.pareto(20.0, 1.8);
          want = 20.0 / std::pow(1.0 - uniform(twin), 1.0 / 1.8);
          break;
      }
      ASSERT_EQ(bits(got), bits(want)) << "seed " << seed << ", draw " << i;
    }
  }
}
#endif  // __GLIBCXX__

TEST(Rng, SplitmixAvalanche) {
  // Neighbouring inputs should produce wildly different outputs.
  const std::uint64_t a = splitmix64(1);
  const std::uint64_t b = splitmix64(2);
  EXPECT_NE(a, b);
  EXPECT_GT(__builtin_popcountll(a ^ b), 16);
}

}  // namespace
}  // namespace cebis::stats
