// The line grammar shared by every text format the verifier reads back:
// epoch-decision files, checkpoints, sweep journals and DMP1 payloads.
//
// A record is one non-blank line, trailing '\r' and spaces trimmed: a
// keyword, then space-separated fields. A format's header, when it has
// one, must be the first non-blank line; '#' comments after it are
// skipped. Field reads are checked — a sign on an unsigned field, a value
// out of range or junk inside a token is refused — and a count-prefixed
// list never trusts its count further than the tokens on its line, so
// malformed input yields a `line N:` diagnostic, never a throw. Each
// parser keeps only its own keyword table on top of this.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/strutil.hpp"

namespace dampi {

/// Parses all of `token` into *out: a base-10 integer in range (no sign
/// on unsigned types) or a double. False on an empty token, junk or a
/// value out of range.
template <class T>
bool read_token(std::string_view token, T* out) {
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, *out);
  return ec == std::errc() && ptr == last;
}

/// A cursor over the fields of one record, past its keyword.
class LineFields {
 public:
  LineFields() = default;
  /// `text` as it follows the keyword, separating space included (rest()
  /// drops it).
  explicit LineFields(std::string_view text) : text_(text) {}

  /// Reads the next token into *out: a whole base-10 integer in range
  /// (no sign on unsigned types), a double, a bool written as 0 or 1, or
  /// the token itself (free of control characters). False when no token
  /// is left or it does not parse.
  template <class T>
  bool read(T* out) {
    const std::string_view token = next_token();
    if (token.empty()) return false;
    if constexpr (std::is_same_v<T, std::string_view> ||
                  std::is_same_v<T, std::string>) {
      for (const char c : token) {
        if (static_cast<unsigned char>(c) < 0x20) return false;
      }
      *out = token;
    } else if constexpr (std::is_same_v<T, bool>) {
      if (token != "0" && token != "1") return false;
      *out = token == "1";
    } else {
      return read_token(token, out);
    }
    return true;
  }

  /// Reads each field in turn and requires the line to end after them.
  template <class... T>
  bool read_exactly(T*... out) {
    return (read(out) && ...) && done();
  }

  /// Reads the next token and requires it to be `literal`.
  bool expect(std::string_view literal) { return next_token() == literal; }

  /// Replaces *out (a vector or set) with a count-prefixed list
  /// `N x1 .. xN`. A count larger than the tokens left on the line fails
  /// when the tokens run out, before it can size anything.
  template <class C>
  bool read_list(C* out) {
    std::size_t count = 0;
    if (!read(&count)) return false;
    out->clear();
    for (std::size_t i = 0; i < count; ++i) {
      typename C::value_type value{};
      if (!read(&value)) return false;
      out->insert(out->end(), value);
    }
    return true;
  }

  /// The text after the fields read so far and one separating space,
  /// verbatim; and the same decoded with unescape_line.
  std::string_view rest() const { return text_.substr(text_.empty() ? 0 : 1); }
  std::string unescaped_rest() const { return unescape_line(rest()); }

  /// True when no token is left.
  bool done() const { return text_.find_first_not_of(' ') == text_.npos; }

 private:
  std::string_view next_token();

  std::string_view text_;
};

/// Walks the records of one text.
class LineReader {
 public:
  /// `header`, when non-null, must be the first non-blank line.
  explicit LineReader(std::string_view text, const char* header = nullptr)
      : text_(text), header_(header), saw_header_(header == nullptr) {}

  /// Advances to the next record. False at the end of the text, or with
  /// error() set when the header is missing or wrong.
  bool next();

  std::string_view line() const { return line_; }
  std::string_view keyword() const { return keyword_; }
  LineFields& fields() { return fields_; }

  /// `message` prefixed with the current line: "line N: message"; and
  /// "line N: bad <keyword> line".
  std::string at(std::string_view message) const;
  std::string bad_line() const;
  const std::string& error() const { return error_; }

  /// For an `end` record: true when it has no fields and nothing but
  /// blank lines follows; otherwise false with error() set. ended()
  /// tells whether the text had its trailer.
  bool end_trailer();
  bool ended() const { return ended_; }

  /// Claims the `n` bytes after the current line (a length-prefixed
  /// embedded text); false when fewer remain.
  bool take(std::size_t n, std::string_view* out);

  /// The text after the current line, not yet read.
  std::string_view remaining() const { return text_.substr(pos_); }

 private:
  /// The next physical line, trimmed; false at the end of the text.
  bool next_line(std::string_view* line);

  std::string_view text_;
  const char* header_;
  bool saw_header_;
  bool ended_ = false;
  std::size_t pos_ = 0;
  int line_no_ = 0;
  std::string_view line_;
  std::string_view keyword_;
  LineFields fields_;
  std::string error_;
};

/// The refusal every parser returns: stores `message` in *error (when
/// non-null) and converts to an empty optional of any type.
inline std::nullopt_t refuse(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return std::nullopt;
}

/// The whole file at `path`; nullopt with *error (when non-null) set to
/// "cannot open <path>" when it cannot be read.
std::optional<std::string> read_file(const std::string& path,
                                     std::string* error);

/// Writes `text` to `<path>.tmp`, then rename(2)s it over `path`, so a
/// reader sees the previous file or the new one, never a torn write.
/// False on I/O failure.
bool write_file_atomic(const std::string& path, std::string_view text);

}  // namespace dampi
