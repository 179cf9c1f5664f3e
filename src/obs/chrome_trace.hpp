// Chrome trace_event exporter plus the validator the CI smoke stage
// uses. The JSON array format loads directly in chrome://tracing and
// https://ui.perfetto.dev: one pid per process (the coordinator and each
// worker process, all named "dampi"), one tid per lane (rank, explorer,
// sweep), span events as B/E pairs, instants as "i".
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace dampi::obs {

/// Render lane snapshots as a Chrome trace_event JSON array, under this
/// process's pid.
std::string chrome_trace_json(const std::vector<LaneSnapshot>& lanes);

/// Snapshot the global tracer and write the JSON to `path`, with the
/// event arrays that worker processes 0..workers-1 left in
/// `<path>.w<id>` spliced in (each file is removed once read). Returns
/// false when the file cannot be written.
bool write_chrome_trace(const std::string& path, int workers = 0);

/// Structural validation of an exported trace: well-formed JSON array
/// of objects, every event carries name/ph/pid/tid (and ts except
/// metadata), and each lane's — each (pid, tid)'s — timestamps are
/// monotonically non-decreasing. On failure returns false and sets
/// `error`. `lanes_out` (optional) receives the number of distinct
/// (pid, tid) lanes carrying events.
bool validate_chrome_trace(const std::string& json, std::string* error,
                           std::size_t* lanes_out = nullptr);

}  // namespace dampi::obs
