// Minimal thread-safe leveled logger.
//
// The runtime hosts many rank threads; log lines are serialized under a
// single mutex and prefixed with level and (when set) the calling rank.
// Verbosity defaults to Warn so tests and benches stay quiet; the
// DAMPI_LOG_LEVEL environment variable (trace|debug|info|warn|error|off)
// overrides it.
#pragma once

#include <sstream>
#include <string>

namespace dampi::log {

enum class Level : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global log threshold. Reads DAMPI_LOG_LEVEL once at first use.
Level threshold();
void set_threshold(Level level);

/// Emit one line (no trailing newline required) if `level` >= threshold.
void write(Level level, const std::string& line);

namespace detail {
/// The calling thread's rank tag, defined here so that the coop
/// scheduler's per-dispatch swaps compile to plain TLS accesses.
inline constinit thread_local int t_rank = -1;
}  // namespace detail

/// Per-thread rank tag included in log prefixes; -1 means "no rank"
/// (scheduler / driver threads). Set by the runtime when a rank starts.
inline void set_thread_rank(int rank) { detail::t_rank = rank; }
inline int thread_rank() { return detail::t_rank; }

namespace detail {
struct LineStream {
  Level level;
  std::ostringstream os;
  ~LineStream() { write(level, os.str()); }
};
}  // namespace detail

}  // namespace dampi::log

#define DAMPI_LOG(lvl)                                               \
  if (::dampi::log::Level::lvl < ::dampi::log::threshold()) {        \
  } else                                                             \
    ::dampi::log::detail::LineStream{::dampi::log::Level::lvl, {}}.os
