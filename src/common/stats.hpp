// Small formatting helpers for the bench harnesses' paper-style tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dampi {

/// Render `count` as a compact human string the way the paper prints op
/// counts: 187K, 1315K, 7986K — i.e. thousands with a K suffix once >= 10K.
std::string human_count(std::uint64_t count);

/// Simple fixed-width text table used by the bench harnesses to print
/// paper-style tables. Columns are sized to the widest cell.
class TextTable {
 public:
  void header(std::vector<std::string> cells);
  void row(std::vector<std::string> cells);
  /// Render with column separators, header underline.
  std::string str() const;

 private:
  std::vector<std::vector<std::string>> rows_;
  bool has_header_ = false;
};

}  // namespace dampi
