// The Epoch Decisions *file* (paper §II-B: "we record it as a Potential
// Match in a file... DAMPI's scheduler computes the Epoch Decisions file
// that has the information to force alternate matches"). A schedule
// serializes to a small line-oriented text format, so reproducers can be
// saved next to a bug report and replayed later (verify_cli --replay).
//
// Format:
//   # dampi-epoch-decisions v1
//   <rank> <nd_index> <forced_source_world_rank>
//   ...
// Blank lines and #-comments are ignored.
#pragma once

#include <optional>
#include <string>

#include "core/decision.hpp"

namespace dampi::core {

std::string serialize_schedule(const Schedule& schedule);

/// Parses the textual form; nullopt (with *error filled when non-null)
/// on malformed input.
std::optional<Schedule> parse_schedule(const std::string& text,
                                       std::string* error = nullptr);

/// The bound every loader checks a rank or source against: [0, nprocs).
inline bool rank_in_range(mpism::Rank rank, int nprocs) {
  return rank >= 0 && rank < nprocs;
}

/// True when every decision names a rank and a source in [0, nprocs);
/// otherwise false with *error (when non-null) naming the first bad
/// decision. The parser cannot check this itself: it does not know the
/// run's rank count.
bool validate_schedule(const Schedule& schedule, int nprocs,
                       std::string* error = nullptr);

/// Write/read a schedule to/from a file. save returns false on I/O
/// failure; load returns nullopt on I/O or parse failure.
bool save_schedule(const Schedule& schedule, const std::string& path);
std::optional<Schedule> load_schedule(const std::string& path,
                                      std::string* error = nullptr);

}  // namespace dampi::core
