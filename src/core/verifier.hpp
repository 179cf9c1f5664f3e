// Verifier: the user-facing facade of DAMPI.
//
//   core::VerifyOptions options;
//   options.explorer.nprocs = 16;
//   core::Verifier verifier(options);
//   core::VerifyResult result = verifier.verify(program);
//
// Runs the program natively (for the overhead baseline), then explores
// the space of non-deterministic matches with the Explorer, and reports
// bugs (deadlocks, program failures) with reproducing schedules, local
// resource leaks (unfreed communicators, unfinished requests), R*, the
// instrumentation slowdown, and §V unsafe-pattern alerts.
#pragma once

#include "core/explorer.hpp"
#include "core/options.hpp"

namespace dampi::core {

struct VerifyOptions {
  ExplorerOptions explorer;
  /// Run once without instrumentation to compute the slowdown (Table II).
  bool measure_native = true;
};

struct VerifyResult {
  ExploreResult exploration;

  /// Overhead of the instrumented first run vs the native run (virtual
  /// time), the paper's Table II "Slowdown" column.
  double native_vtime_us = 0.0;
  double instrumented_vtime_us = 0.0;
  double slowdown = 1.0;

  /// Leak findings from the first completed execution (Table II C-Leak /
  /// R-Leak columns).
  int comm_leaks = 0;
  std::uint64_t request_leaks = 0;

  bool deadlock_found = false;
  bool error_found = false;
  /// A run exceeded its per-run watchdog budget (possible livelock).
  bool hang_found = false;

  bool clean() const {
    return !deadlock_found && !error_found && !hang_found && comm_leaks == 0 &&
           request_leaks == 0;
  }
};

/// Virtual time of one uninstrumented run under the exploration's own
/// engine options (run_options_for): the Table II overhead baseline.
double measure_native_vtime(const ExplorerOptions& options,
                            const mpism::ProgramFn& program);

/// A VerifyResult from a finished exploration (in-process or sharded)
/// and the native baseline (0 = not measured): the slowdown, the first
/// run's leaks, and one flag per bug kind found.
VerifyResult summarize_verify(ExploreResult exploration,
                              double native_vtime_us);

class Verifier {
 public:
  explicit Verifier(VerifyOptions options) : options_(std::move(options)) {}

  VerifyResult verify(const mpism::ProgramFn& program,
                      const Explorer::RunObserver& observer = {});

 private:
  VerifyOptions options_;
};

}  // namespace dampi::core
