#include "core/decision_io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strutil.hpp"

namespace dampi::core {

namespace {
constexpr const char* kHeader = "# dampi-epoch-decisions v1";
}

std::string serialize_schedule(const Schedule& schedule) {
  std::string out = kHeader;
  out += '\n';
  for (const auto& [key, src] : schedule.forced) {
    out += strfmt("%d %llu %d\n", key.rank,
                  static_cast<unsigned long long>(key.nd_index), src);
  }
  return out;
}

std::optional<Schedule> parse_schedule(const std::string& text,
                                       std::string* error) {
  auto fail = [error](std::string message) -> std::optional<Schedule> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  Schedule schedule;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    // Trim trailing carriage returns / whitespace.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    // The header must be the first non-blank line: decisions (or stray
    // comments) before it mean the file is not a decisions file, and
    // accepting them would silently replay a truncated schedule.
    if (!saw_header) {
      if (line != kHeader) {
        return fail(strfmt(
            "line %d: first non-blank line must be the '%s' header",
            line_no, kHeader));
      }
      saw_header = true;
      continue;
    }
    if (line[0] == '#') continue;
    int rank = -1;
    unsigned long long nd = 0;
    int src = -1;
    if (std::sscanf(line.c_str(), "%d %llu %d", &rank, &nd, &src) != 3) {
      return fail(strfmt("line %d: expected '<rank> <nd> <src>'", line_no));
    }
    if (rank < 0 || src < 0) {
      return fail(strfmt("line %d: negative rank or source", line_no));
    }
    // rank == src is legal: mpism permits self-sends, and a wildcard
    // receive may match one, so reproducer schedules can contain
    // self-matches.
    const EpochKey key{rank, static_cast<std::uint64_t>(nd)};
    if (schedule.forced.count(key) != 0) {
      return fail(strfmt("line %d: duplicate decision for rank %d nd %llu",
                         line_no, rank, nd));
    }
    schedule.forced[key] = src;
  }
  if (!saw_header) {
    return fail("missing '# dampi-epoch-decisions v1' header");
  }
  return schedule;
}

bool validate_schedule(const Schedule& schedule, int nprocs,
                       std::string* error) {
  for (const auto& [key, src] : schedule.forced) {
    if (!rank_in_range(key.rank, nprocs) || !rank_in_range(src, nprocs)) {
      if (error != nullptr) {
        *error = strfmt("decision '%d %llu %d' names a rank outside [0, %d)",
                        key.rank,
                        static_cast<unsigned long long>(key.nd_index), src,
                        nprocs);
      }
      return false;
    }
  }
  return true;
}

bool save_schedule(const Schedule& schedule, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << serialize_schedule(schedule);
  return static_cast<bool>(out);
}

std::optional<Schedule> load_schedule(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_schedule(buffer.str(), error);
}

}  // namespace dampi::core
