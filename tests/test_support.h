#ifndef CEBIS_TESTS_TEST_SUPPORT_H
#define CEBIS_TESTS_TEST_SUPPORT_H

// Shared support for the cebis test suites: tolerance levels, the
// deterministic seed policy, and tmp-file fixtures for the io tests.
// Test-only — nothing in src/ may include this.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "stats/rng.h"

namespace cebis::test {

// -- Tolerances ------------------------------------------------------------
//
// Three levels, chosen by how much floating-point accumulation sits
// between the inputs and the asserted value:
//
//   kTightTol   closed-form arithmetic, no accumulation (exact up to ulps)
//   kNumericTol a handful of ops (weights summing to 1, small dot products)
//   kSumTol     long reductions: trace-length or study-period accumulations
inline constexpr double kTightTol = 1e-12;
inline constexpr double kNumericTol = 1e-9;
inline constexpr double kSumTol = 1e-6;

/// CSV round-trips: bounded by the writer's decimal precision, not by FP
/// error, so it gets its own named level even though it equals kSumTol.
inline constexpr double kCsvRoundTripTol = 1e-6;

/// Relative-error assert for quantities whose magnitude varies by orders
/// of magnitude (costs in USD, energy in MWh).
#define CEBIS_EXPECT_REL_NEAR(actual, expected, rel)                        \
  EXPECT_NEAR(actual, expected,                                             \
              std::abs(static_cast<double>(expected)) * (rel) + 1e-15)

// -- Deterministic seeding -------------------------------------------------
//
// Every stochastic test draws from Rng streams derived from one root
// seed, via the same split() discipline the library itself uses. 2009 is
// the paper year and matches the bench default, so test fixtures and
// bench fixtures see identical streams.
inline constexpr std::uint64_t kTestSeed = 2009;

/// Child stream `stream` of the root test seed. Use distinct stream ids
/// per fixture so adding draws to one test never perturbs another.
[[nodiscard]] inline stats::Rng test_rng(std::uint64_t stream = 0) {
  return stats::Rng(kTestSeed).split(stream);
}

// -- Golden digests --------------------------------------------------------

/// FNV-1a over 64-bit words, fed doubles by their bit patterns: a golden
/// digest of a generator's output changes if any output bit does.
struct BitDigest {
  std::uint64_t value = 0xcbf29ce484222325ULL;

  void add(std::uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
      value ^= (word >> shift) & 0xffU;
      value *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

// -- Tmp-file fixtures (io tests) ------------------------------------------

/// Self-deleting file under gtest's TempDir. Name it uniquely per test
/// (ctest runs suites in parallel against a shared TempDir).
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Whole file as a string (empty if unreadable).
[[nodiscard]] inline std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace cebis::test

#endif  // CEBIS_TESTS_TEST_SUPPORT_H
