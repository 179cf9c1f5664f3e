#include "common/stats.hpp"

#include <algorithm>
#include <cstdio>

namespace dampi {

std::string human_count(std::uint64_t count) {
  char buf[32];
  if (count >= 10'000) {
    std::snprintf(buf, sizeof buf, "%lluK",
                  static_cast<unsigned long long>((count + 500) / 1000));
  } else {
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(count));
  }
  return buf;
}

void TextTable::header(std::vector<std::string> cells) {
  rows_.insert(rows_.begin(), std::move(cells));
  has_header_ = true;
}

void TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> width;
  for (const auto& r : rows_) {
    if (width.size() < r.size()) width.resize(r.size(), 0);
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::string out;
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string();
      out += cell;
      out.append(width[c] - cell.size() + 2, ' ');
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  };
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    emit(rows_[i]);
    if (i == 0 && has_header_) {
      std::size_t total = 0;
      for (std::size_t w : width) total += w + 2;
      out.append(total - 2, '-');
      out += '\n';
    }
  }
  return out;
}

}  // namespace dampi
