// Result of executing one program run under the mpism runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpism/op_stats.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

/// The run budget (RunOptions) whose expiry ended a run.
enum class RunBudget : std::uint8_t {
  kNone,
  /// max_ops: counts the run's own operations, so a replay of the same
  /// schedule expires at the same point.
  kOps,
  /// max_run_wall_seconds: host wall time, which load on the host can
  /// exhaust where a quieter replay would not.
  kWallDeadline,
};

struct RunReport {
  /// Every rank returned from the program without error.
  bool completed = false;
  /// The run ended with all live ranks blocked and no enabled transition.
  bool deadlocked = false;
  /// Errors raised by the program under test (Proc::fail, failed
  /// Proc::require, uncaught exceptions, MPI usage errors).
  std::vector<ErrorInfo> errors;
  /// Human-readable description of each blocked operation at deadlock.
  std::string deadlock_detail;

  /// The RunOptions budget (wall deadline or op count) the run
  /// exceeded, if any: a watchdog verdict for a possible hang or
  /// livelock; the explorer reports it as a kHang bug.
  RunBudget expired = RunBudget::kNone;
  /// The run was ended early by an external CancelSource (SIGINT) or
  /// by its campaign's wall deadline; the run's outcome is unusable,
  /// not a bug.
  bool cancelled = false;
  /// Which budget or cancel reason ended the run; empty otherwise.
  std::string stop_reason;

  /// Simulated execution time: max over ranks of accumulated virtual
  /// microseconds at completion (or at abort).
  double vtime_us = 0.0;
  /// Host wall-clock seconds spent executing the run.
  double wall_seconds = 0.0;

  OpStats stats;

  /// Resource-leak accounting at finalize (paper Table II): user
  /// communicators never freed; requests never waited/tested to
  /// completion. Tool-internal resources are exempt.
  int comm_leaks = 0;
  std::uint64_t request_leaks = 0;

  /// User payload messages injected (excludes tool traffic).
  std::uint64_t messages_sent = 0;

  bool timed_out() const { return expired != RunBudget::kNone; }
  bool ok() const { return completed && errors.empty() && !deadlocked; }
};

}  // namespace dampi::mpism
