#pragma once

#include <string>
#include <vector>

namespace dagt {

/// Plain-text table formatter used by the bench binaries to print the
/// paper's tables in a stable row/column layout.
///
/// Usage:
///   TextTable t({"design", "R2", "runtime"});
///   t.addRow({"arm9", "0.864", "2.621"});
///   std::cout << t.render();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void addRow(std::vector<std::string> cells);

  /// Insert a horizontal separator before the next row.
  void addSeparator();

  /// Render with column widths fitted to content.
  std::string render() const;

  /// Format a double with fixed precision (helper for numeric cells).
  static std::string num(double value, int precision = 3);

  /// A float in %.9g: nine significant digits, which strtof reads back to
  /// the same bits for every finite float.
  static std::string exact(float value);

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separatorBefore = false;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
  bool pendingSeparator_ = false;
};

}  // namespace dagt
