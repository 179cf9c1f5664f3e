// trace_check: validate an exported Chrome trace_event JSON file.
//
//   trace_check out.json [--min-lanes N]
//
// Exits 0 when the file is a well-formed trace with monotonic per-lane
// timestamps, a lane being one (pid, tid) — a thread of the coordinator
// or of a worker process — (and at least N event-carrying lanes when
// requested);
// prints the failure and exits 1 otherwise. Used by scripts/tier1.sh as
// the trace smoke-test gate.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/line_record.hpp"
#include "obs/chrome_trace.hpp"

int main(int argc, char** argv) {
  const char* path = nullptr;
  std::size_t min_lanes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-lanes") == 0 && i + 1 < argc) {
      min_lanes = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s <trace.json> [--min-lanes N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s <trace.json> [--min-lanes N]\n", argv[0]);
    return 2;
  }

  std::string error;
  const auto json = dampi::read_file(path, &error);
  if (!json.has_value()) {
    std::fprintf(stderr, "trace_check: %s\n", error.c_str());
    return 1;
  }
  std::size_t lanes = 0;
  if (!dampi::obs::validate_chrome_trace(*json, &error, &lanes)) {
    std::fprintf(stderr, "trace_check: %s: INVALID: %s\n", path,
                 error.c_str());
    return 1;
  }
  if (lanes < min_lanes) {
    std::fprintf(stderr, "trace_check: %s: only %zu event lanes (need %zu)\n",
                 path, lanes, min_lanes);
    return 1;
  }
  std::printf("trace_check: %s: OK (%zu event lanes)\n", path, lanes);
  return 0;
}
