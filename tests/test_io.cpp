// CSV writer and console table renderer.

#include <gtest/gtest.h>

#include <cmath>

#include "io/csv.h"
#include "io/table.h"
#include "test_support.h"

namespace cebis::io {
namespace {

using test::slurp;
using test::TempFile;

TEST(CsvWriter, PlainRows) {
  TempFile tmp("cebis_plain.csv");
  {
    CsvWriter csv(tmp.path());
    csv.row({"a", "b", "c"});
    csv.row({"1", "2", "3"});
  }
  EXPECT_EQ(slurp(tmp.path()), "a,b,c\n1,2,3\n");
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  TempFile tmp("cebis_quotes.csv");
  {
    CsvWriter csv(tmp.path());
    csv.row({"with,comma", "with\"quote", "plain"});
  }
  EXPECT_EQ(slurp(tmp.path()), "\"with,comma\",\"with\"\"quote\",plain\n");
}

TEST(CsvWriter, NumericRow) {
  TempFile tmp("cebis_numeric.csv");
  {
    CsvWriter csv(tmp.path());
    csv.row({"series", format_number(1.5), format_number(2.0),
             format_number(0.25)});
  }
  EXPECT_EQ(slurp(tmp.path()), "series,1.5,2,0.25\n");
}

TEST(CsvWriter, FailsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}

TEST(FormatNumber, TrimsTrailingZeros) {
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_EQ(format_number(2.0), "2");
  EXPECT_EQ(format_number(0.123456, 3), "0.123");
  EXPECT_EQ(format_number(-3.10), "-3.1");
  EXPECT_EQ(format_number(std::nan("")), "nan");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Numeric column right-aligned: "1.5" should be preceded by spaces.
  EXPECT_NE(out.find(" 1.5"), std::string::npos);
}

TEST(Table, Validation) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace cebis::io
