// printf-style string formatting (GCC 12 lacks <format>).
#pragma once

#include <string>
#include <string_view>

namespace dampi {

/// snprintf into a std::string. Format string must be a literal under
/// -Wformat; arguments follow printf conventions.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-decimal double rendering, e.g. fmt_fixed(1.1834, 2) -> "1.18".
std::string fmt_fixed(double value, int decimals);

/// One-line-safe encoding for free-form text embedded in line-oriented
/// file and wire formats (checkpoint journals, the dist protocol):
/// backslash-escapes newlines and carriage returns.
std::string escape_line(const std::string& text);
std::string unescape_line(std::string_view text);

}  // namespace dampi
