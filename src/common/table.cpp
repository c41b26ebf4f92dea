#include "common/table.hpp"

#include <cstdio>

#include <iomanip>
#include <sstream>

#include "common/check.hpp"

namespace dagt {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  DAGT_CHECK(!header_.empty());
}

void TextTable::addRow(std::vector<std::string> cells) {
  DAGT_CHECK_MSG(cells.size() == header_.size(),
                 "row arity " << cells.size() << " != header arity "
                              << header_.size());
  rows_.push_back({std::move(cells), pendingSeparator_});
  pendingSeparator_ = false;
}

void TextTable::addSeparator() { pendingSeparator_ = true; }

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      width[c] = std::max(width[c], row.cells[c].size());
    }
  }

  auto renderLine = [&](const std::vector<std::string>& cells) {
    std::ostringstream os;
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(width[c]))
         << cells[c] << " |";
    }
    os << '\n';
    return os.str();
  };
  auto renderRule = [&] {
    std::ostringstream os;
    os << "+";
    for (const std::size_t w : width) os << std::string(w + 2, '-') << '+';
    os << '\n';
    return os.str();
  };

  std::ostringstream out;
  out << renderRule() << renderLine(header_) << renderRule();
  for (const auto& row : rows_) {
    if (row.separatorBefore) out << renderRule();
    out << renderLine(row.cells);
  }
  out << renderRule();
  return out.str();
}

std::string TextTable::num(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string TextTable::exact(float value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  return buf;
}

}  // namespace dagt
