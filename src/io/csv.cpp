#include "io/csv.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace cebis::io {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::write_cell(std::string_view cell, bool first) {
  if (!first) out_ << ',';
  const bool needs_quotes = cell.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quotes) {
    out_ << cell;
    return;
  }
  out_ << '"';
  for (char ch : cell) {
    if (ch == '"') out_ << '"';
    out_ << ch;
  }
  out_ << '"';
}

void CsvWriter::row(std::initializer_list<std::string_view> cells) {
  bool first = true;
  for (auto c : cells) {
    write_cell(c, first);
    first = false;
  }
  out_ << '\n';
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  bool first = true;
  for (const auto& c : cells) {
    write_cell(c, first);
    first = false;
  }
  out_ << '\n';
}

std::string format_number(double value, int precision) {
  if (!std::isfinite(value)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

}  // namespace cebis::io
