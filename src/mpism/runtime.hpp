// Runtime: executes an MPI-like program over N simulated ranks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "mpism/cancel.hpp"
#include "mpism/cost_model.hpp"
#include "mpism/engine_lock.hpp"
#include "mpism/match_index.hpp"
#include "mpism/policy.hpp"
#include "mpism/proc.hpp"
#include "mpism/report.hpp"
#include "mpism/scheduler.hpp"
#include "mpism/tool.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

/// The program under test: executed once on every rank, in its own
/// thread. Programs must be deterministic functions of their rank and of
/// message-match outcomes — the precondition every dynamic verifier
/// (ISP, DAMPI) places on replay.
using ProgramFn = std::function<void(Proc&)>;

struct RunOptions {
  int nprocs = 2;
  CostModel cost;
  /// How the runtime resolves wildcard matches when several sources are
  /// eligible (SELF_RUN behaviour).
  PolicyKind policy = PolicyKind::kLowestSource;
  std::uint64_t policy_seed = 1;
  /// How ranks execute and who advances next (deterministic
  /// run-to-block fibers by default, or thread-per-rank). Defaults
  /// honor DAMPI_SCHED.
  SchedOptions sched = default_sched_options();
  /// Message-matching structure: indexed O(1) lanes, or the linear scan
  /// kept as the differential oracle for tests.
  MatchKind match = MatchKind::kIndexed;
  /// Engine concurrency control: per-destination-rank lock shards, or
  /// the single global mutex kept as the differential oracle for tests.
  /// Verdicts and RunReport fingerprints are identical across modes.
  EngineLockKind engine_lock = EngineLockKind::kSharded;
  /// Interposition stack; empty means a native (uninstrumented) run.
  ToolSetup tools;
  /// Per-run budgets, all 0 = unlimited. A run that exceeds any of them
  /// ends with RunReport::timed_out (watchdog verdict) instead of
  /// hanging: wall-clock deadline (enforced at scheduler block/yield
  /// points and at every MPI-call entry), virtual-time ceiling, and
  /// MPI-op-count ceiling.
  double max_run_wall_seconds = 0.0;
  double max_run_vtime_us = 0.0;
  std::uint64_t max_ops = 0;
  /// External cancellation: when set, firing the source ends the run
  /// with RunReport::cancelled (neither a verdict nor a bug). One
  /// source may span many concurrent runs.
  std::shared_ptr<CancelSource> cancel;
};

/// One Runtime executes one run. Construct fresh per run (replays build a
/// new Runtime so no state bleeds between interleavings).
class Runtime {
 public:
  explicit Runtime(RunOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Blocks until every rank finishes, a deadlock is detected, or the
  /// program under test fails.
  RunReport run(const ProgramFn& program);

 private:
  std::unique_ptr<Engine> engine_;
};

}  // namespace dampi::mpism
