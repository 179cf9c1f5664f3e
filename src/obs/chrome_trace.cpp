#include "obs/chrome_trace.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>

#include "common/line_record.hpp"
#include "common/strutil.hpp"

namespace dampi::obs {
namespace {

void append_args(std::string& out, const KindInfo& info,
                 const TraceEvent& event) {
  const std::int64_t values[4] = {event.a, event.b, event.c,
                                  static_cast<std::int64_t>(event.d)};
  bool first = true;
  out += ",\"args\":{";
  for (int i = 0; i < 4; ++i) {
    if (info.args[i] == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += strfmt("\"%s\":%lld", info.args[i],
                  static_cast<long long>(values[i]));
  }
  out += "}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<LaneSnapshot>& lanes) {
  const int pid = static_cast<int>(::getpid());
  std::string out = "[\n";
  out += strfmt("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                "\"tid\":0,\"args\":{\"name\":\"dampi\"}}",
                pid);
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    const LaneSnapshot& lane = lanes[tid];
    out += strfmt(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                  pid, tid + 1, lane.name.c_str());
    const std::uint64_t dropped =
        lane.emitted - static_cast<std::uint64_t>(lane.events.size());
    if (dropped > 0) {
      out += strfmt(",\n{\"name\":\"events dropped (ring wrapped)\","
                    "\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%zu,"
                    "\"ts\":0.000,\"args\":{\"dropped\":%llu}}",
                    pid, tid + 1, static_cast<unsigned long long>(dropped));
    }
    for (const TraceEvent& event : lane.events) {
      const KindInfo& info = kind_info(event.kind);
      const double ts_us = static_cast<double>(event.ts_ns) / 1000.0;
      const char* ph = event.phase == Phase::kBegin  ? "B"
                       : event.phase == Phase::kEnd  ? "E"
                                                     : "i";
      out += strfmt(",\n{\"name\":\"%s\",\"ph\":\"%s\"", info.name, ph);
      if (event.phase == Phase::kInstant) out += ",\"s\":\"t\"";
      out += strfmt(",\"pid\":%d,\"tid\":%zu,\"ts\":%.3f", pid, tid + 1,
                    ts_us);
      append_args(out, info, event);
      out += "}";
    }
  }
  out += "\n]\n";
  return out;
}

bool write_chrome_trace(const std::string& path, int workers) {
  std::string json = chrome_trace_json(Tracer::instance().snapshot());
  for (int w = 0; w < workers; ++w) {
    const std::string part = path + ".w" + std::to_string(w);
    const auto text = read_file(part, nullptr);
    std::remove(part.c_str());
    // Both are "[\n<events>\n]\n": the worker's events go in before the
    // closing bracket.
    const std::size_t first = text ? text->find('{') : std::string::npos;
    const std::size_t last = text ? text->rfind('}') : std::string::npos;
    if (first == std::string::npos || last == std::string::npos) continue;
    json.insert(json.rfind("\n]"),
                ",\n" + text->substr(first, last - first + 1));
  }
  return write_file_atomic(path, json);
}

// ---------------------------------------------------------------------------
// Validator: a minimal JSON reader, enough to check structure and the
// per-lane timestamp invariant without a third-party dependency.
// ---------------------------------------------------------------------------

namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  bool fail(const std::string& message) {
    error_ = strfmt("offset %zu: %s", i_, message.c_str());
    return false;
  }
  const std::string& error() const { return error_; }

  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != c) {
      return fail(strfmt("expected '%c'", c));
    }
    ++i_;
    return true;
  }
  bool peek(char c) {
    skip_ws();
    return i_ < s_.size() && s_[i_] == c;
  }
  bool at_end() {
    skip_ws();
    return i_ >= s_.size();
  }

  bool parse_string(std::string* out) {
    if (!eat('"')) return false;
    std::string value;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return fail("dangling escape");
      }
      value += s_[i_++];
    }
    if (i_ >= s_.size()) return fail("unterminated string");
    ++i_;  // closing quote
    if (out != nullptr) *out = std::move(value);
    return true;
  }

  bool parse_number(double* out) {
    skip_ws();
    const std::size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    bool digits = false;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '-' || s_[i_] == '+')) {
      digits = true;
      ++i_;
    }
    if (!digits) return fail("expected number");
    if (out != nullptr) *out = std::atof(s_.substr(start, i_ - start).c_str());
    return true;
  }

  /// Parse any value; scalars of interest are returned via the outs.
  bool skip_value() {
    skip_ws();
    if (i_ >= s_.size()) return fail("unexpected end");
    const char c = s_[i_];
    if (c == '"') return parse_string(nullptr);
    if (c == '{') return skip_composite('{', '}');
    if (c == '[') return skip_composite('[', ']');
    if (s_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      return true;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      return true;
    }
    if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
      return true;
    }
    return parse_number(nullptr);
  }

  bool skip_composite(char open, char close) {
    if (!eat(open)) return false;
    if (peek(close)) return eat(close);
    while (true) {
      if (open == '{') {
        if (!parse_string(nullptr)) return false;
        if (!eat(':')) return false;
      }
      if (!skip_value()) return false;
      if (peek(',')) {
        eat(',');
        continue;
      }
      return eat(close);
    }
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
  std::string error_;
};

}  // namespace

bool validate_chrome_trace(const std::string& json, std::string* error,
                           std::size_t* lanes_out) {
  auto set_error = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  JsonReader r(json);
  if (!r.eat('[')) return set_error(r.error());

  std::map<std::pair<double, double>, double> last_ts_by_lane;
  std::size_t events = 0;
  if (!r.peek(']')) {
    while (true) {
      // One event object: a flat field scan, nested values skipped.
      if (!r.eat('{')) return set_error(r.error());
      std::optional<std::string> name, ph;
      std::optional<double> pid, tid, ts;
      if (!r.peek('}')) {
        while (true) {
          std::string key;
          if (!r.parse_string(&key)) return set_error(r.error());
          if (!r.eat(':')) return set_error(r.error());
          if (key == "name" || key == "ph") {
            std::string value;
            if (!r.parse_string(&value)) return set_error(r.error());
            (key == "name" ? name : ph) = std::move(value);
          } else if (key == "pid" || key == "tid" || key == "ts") {
            double value = 0.0;
            if (!r.parse_number(&value)) return set_error(r.error());
            (key == "pid" ? pid : key == "tid" ? tid : ts) = value;
          } else {
            if (!r.skip_value()) return set_error(r.error());
          }
          if (r.peek(',')) {
            r.eat(',');
            continue;
          }
          break;
        }
      }
      if (!r.eat('}')) return set_error(r.error());
      ++events;

      if (!name || !ph || !pid || !tid) {
        return set_error(
            strfmt("event %zu: missing name/ph/pid/tid", events));
      }
      if (*ph != "M") {
        if (!ts) return set_error(strfmt("event %zu: missing ts", events));
        auto [it, inserted] = last_ts_by_lane.try_emplace({*pid, *tid}, *ts);
        if (!inserted) {
          if (*ts < it->second) {
            return set_error(strfmt(
                "event %zu: ts went backwards on pid %g tid %g (%f < %f)",
                events, *pid, *tid, *ts, it->second));
          }
          it->second = *ts;
        }
      }
      if (r.peek(',')) {
        r.eat(',');
        continue;
      }
      break;
    }
  }
  if (!r.eat(']')) return set_error(r.error());
  if (!r.at_end()) return set_error("trailing content after array");
  if (lanes_out != nullptr) *lanes_out = last_ts_by_lane.size();
  return true;
}

}  // namespace dampi::obs
