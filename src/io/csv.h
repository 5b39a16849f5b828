#ifndef CEBIS_IO_CSV_H
#define CEBIS_IO_CSV_H

// Minimal CSV writer. Every bench binary writes its figure/table data as
// CSV next to its stdout report so results can be re-plotted.

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace cebis::io {

class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  /// Writes a row of already-formatted cells (quoted as needed).
  void row(std::initializer_list<std::string_view> cells);
  void row(const std::vector<std::string>& cells);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::ofstream out_;

  void write_cell(std::string_view cell, bool first);
};

/// Formats a double with fixed precision, trimming trailing zeros.
[[nodiscard]] std::string format_number(double value, int precision = 4);

}  // namespace cebis::io

#endif  // CEBIS_IO_CSV_H
