// Histogram container used by the Fig 7/10/13 distribution plots.

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/histogram.h"
#include "test_support.h"

namespace cebis::stats {
namespace {

TEST(Histogram, BinLayout) {
  const Histogram h(-100.0, 100.0, 5.0);
  EXPECT_EQ(h.bin_count(), 40u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), -100.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), -95.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), -97.5);
  EXPECT_DOUBLE_EQ(h.bin_center(39), 97.5);
}

TEST(Histogram, AddAndCount) {
  Histogram h(0.0, 10.0, 1.0);
  h.add(0.5);
  h.add(0.7);
  h.add(9.99);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 10.0, 1.0);
  h.add(-5.0);
  h.add(15.0);
  h.add(10.0);  // hi edge is out of range too (half-open range)
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    EXPECT_DOUBLE_EQ(h.count(i), 0.0) << i;
  }
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, Weights) {
  Histogram h(0.0, 10.0, 1.0);
  h.add(1.5, 2.5);
  EXPECT_DOUBLE_EQ(h.count(1), 2.5);
  EXPECT_DOUBLE_EQ(h.total(), 2.5);
}

TEST(Histogram, RowsSumToOne) {
  Histogram h(0.0, 10.0, 2.0);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) * 0.999);
  double sum = 0.0;
  for (const auto& row : h.rows()) sum += row.fraction;
  EXPECT_NEAR(sum, 1.0, test::kTightTol);
}

TEST(Histogram, AsciiRender) {
  Histogram h(0.0, 2.0, 1.0);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST(Histogram, InvalidArgs) {
  EXPECT_THROW(Histogram(10.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 10.0, 0.0), std::invalid_argument);
  Histogram h(0.0, 10.0, 1.0);
  EXPECT_THROW((void)h.count(10), std::out_of_range);
  EXPECT_THROW((void)h.bin_lo(10), std::out_of_range);
}

TEST(Histogram, AddAll) {
  Histogram h(0.0, 5.0, 1.0);
  const std::vector<double> xs = {0.5, 1.5, 2.5, 3.5, 4.5};
  h.add_all(xs);
  EXPECT_DOUBLE_EQ(h.total(), 5.0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(h.count(i), 1.0);
}

}  // namespace
}  // namespace cebis::stats
