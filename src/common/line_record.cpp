#include "common/line_record.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strutil.hpp"

namespace dampi {

std::string_view LineFields::next_token() {
  const std::size_t start =
      std::min(text_.find_first_not_of(' '), text_.size());
  const std::size_t end = std::min(text_.find(' ', start), text_.size());
  const std::string_view token = text_.substr(start, end - start);
  text_.remove_prefix(end);
  return token;
}

bool LineReader::next_line(std::string_view* line) {
  if (pos_ >= text_.size()) return false;
  const std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
  std::string_view l = text_.substr(pos_, eol - pos_);
  pos_ = std::min(eol + 1, text_.size());
  ++line_no_;
  while (!l.empty() && (l.back() == '\r' || l.back() == ' ')) {
    l.remove_suffix(1);
  }
  *line = l;
  return true;
}

bool LineReader::next() {
  std::string_view l;
  while (next_line(&l)) {
    if (l.empty()) continue;
    if (!saw_header_) {
      if (l != header_) {
        error_ = at(strfmt("first non-blank line must be the '%s' header",
                           header_));
        return false;
      }
      saw_header_ = true;
      continue;
    }
    if (l[0] == '#') continue;
    line_ = l;
    const std::size_t space = std::min(l.find(' '), l.size());
    keyword_ = l.substr(0, space);
    fields_ = LineFields(l.substr(space));
    return true;
  }
  if (!saw_header_) error_ = strfmt("missing '%s' header", header_);
  return false;
}

std::string LineReader::at(std::string_view message) const {
  return strfmt("line %d: %.*s", line_no_, static_cast<int>(message.size()),
                message.data());
}

std::string LineReader::bad_line() const {
  return at("bad " + std::string(keyword_) + " line");
}

bool LineReader::end_trailer() {
  std::string_view l;
  ended_ = fields_.done();
  while (ended_ && next_line(&l)) ended_ = l.empty();
  if (!ended_) error_ = at("content after 'end' trailer");
  return ended_;
}

bool LineReader::take(std::size_t n, std::string_view* out) {
  if (n > text_.size() - pos_) return false;
  *out = text_.substr(pos_, n);
  pos_ += n;
  line_no_ += static_cast<int>(std::count(out->begin(), out->end(), '\n'));
  return true;
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

bool write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  // rename(2) is atomic within a filesystem.
  return out && std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace dampi
