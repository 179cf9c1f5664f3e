#include "core/decision_io.hpp"

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
  Schedule schedule;
  // The header must come first: decisions (or stray comments) before it
  // mean the file is not a decisions file, and accepting them would
  // silently replay a truncated schedule.
  LineReader in(text, kHeader);
  while (in.next()) {
    LineFields fields(in.line());
    EpochKey key;
    mpism::Rank src = -1;
    if (!read_decision(fields, &key, &src)) {
      return refuse(error, in.at("expected '<rank> <nd> <src>'"));
    }
    if (key.rank < 0 || src < 0) {
      return refuse(error, in.at("negative rank or source"));
    }
    // rank == src is legal: mpism permits self-sends, and a wildcard
    // receive may match one, so reproducer schedules can contain
    // self-matches.
    if (!schedule.forced.emplace(key, src)) {
      return refuse(error, in.at(strfmt(
          "duplicate decision for rank %d nd %llu", key.rank,
          static_cast<unsigned long long>(key.nd_index))));
    }
  }
  if (!in.error().empty()) return refuse(error, in.error());
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
  return write_file_atomic(path, serialize_schedule(schedule));
}

std::optional<Schedule> load_schedule(const std::string& path,
                                      std::string* error) {
  const auto text = read_file(path, error);
  if (!text.has_value()) return std::nullopt;
  return parse_schedule(*text, error);
}

}  // namespace dampi::core
