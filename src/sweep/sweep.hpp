// Fault-sweep campaigns: the crash-tolerance matrix of a program.
//
// One fault-free discovery run harvests the per-rank op inventory
// (inventory.hpp); a deterministic enumeration turns it into
// single-point fault plans under a budget — every (rank, op) abort and
// error point, plus seeded-RNG-sampled delay and flaky perturbations —
// and each plan gets one bounded exploration campaign reusing the
// explorer's watchdog/retry/quarantine machinery. Campaigns are
// independent, so `workers` of them run concurrently; each is
// classified into one Verdict, making the final report a pure function
// of (program, options, budget, seed) at any worker count.
//
// Robustness both ways: per-plan interleaving/wall budgets bound each
// campaign, campaign spawn failures are respawned with bounded backoff,
// and completed plans stream into a crash-safe journal (journal.hpp) so
// a killed sweep resumes without re-running anything it finished.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/options.hpp"
#include "sweep/inventory.hpp"
#include "sweep/types.hpp"

namespace dampi::sweep {

struct SweepOptions {
  /// Base verifier configuration for every campaign (and the discovery
  /// run). Must not carry a fault plan of its own — the sweep owns
  /// injection. `workers` below is the sweep's parallelism.
  core::ExplorerOptions explorer;
  /// Folded into the sweep fingerprint (journal/report identity).
  std::string program_name;

  /// Plan budget: the enumeration is truncated to this many plans
  /// (abort/error points first, then sampled delay/flaky ones).
  std::uint64_t budget = 64;
  /// Seeds the delay/flaky sampler; part of the fingerprint.
  std::uint64_t seed = 1;
  SweepKinds kinds;
  int delay_samples = 8;
  int flaky_samples = 8;

  /// Concurrent plan campaigns (threads in this process). Does not
  /// affect the report payload.
  int workers = 1;

  /// Per-plan campaign budgets (verdict-affecting: fingerprinted).
  std::uint64_t plan_max_interleavings = 256;
  /// Wall-clock safety net per campaign; expiry marks the plan partial.
  double plan_wall_seconds = 60.0;

  /// Crash-safe journal of completed plans (empty = none). With
  /// `resume`, a compatible journal's plans are not re-executed.
  std::string journal_path;
  bool resume = false;

  /// Sweep-wide cancellation (SIGINT bridge): in-flight campaigns are
  /// cancelled, completed plans stay journalled, the sweep reports
  /// interrupted.
  std::shared_ptr<mpism::CancelSource> cancel;

  /// Invoked once per completed plan, serialized (progress display).
  std::function<void(const PlanRecord&)> on_plan_done;
};

struct SweepResult {
  OpInventory inventory;
  /// Completed plans in enumeration order. An interrupted sweep holds
  /// only the plans finished before the cancel.
  std::vector<PlanRecord> records;
  std::uint64_t planned = 0;    ///< plans enumerated before truncation
  std::uint64_t truncated = 0;  ///< dropped by the budget
  std::uint64_t executed = 0;   ///< campaigns run by this process
  std::uint64_t resumed = 0;    ///< satisfied from the journal
  std::uint64_t respawns = 0;   ///< campaign spawn retries
  bool interrupted = false;
  std::string error;  ///< fatal sweep failure (bad options, journal, ...)
};

/// Identity of a sweep for journal/resume validation: the explorer
/// fingerprint (fault-free, tagged with the program name) plus every
/// sweep knob that changes which plans exist or how they are judged.
/// Excludes workers, journal knobs and the wall-clock safety net — a
/// resume may legitimately change those.
std::string sweep_fingerprint(const SweepOptions& options);

/// Deterministic plan enumeration (each plan is one canonical
/// single-point fault spec): abort/error over every inventory
/// coordinate op-major, then seed-sampled delay and flaky points,
/// deduplicated by (kind, rank, op) and truncated to the budget.
/// `*planned` (optional) receives the pre-truncation count.
std::vector<std::string> enumerate_plans(const OpInventory& inventory,
                                         const SweepOptions& options,
                                         std::uint64_t* planned);

/// Collapse one campaign outcome to its matrix cell. `fires` is the
/// plan's total fire count at campaign end.
PlanRecord classify_campaign(std::uint64_t index, const std::string& spec,
                             const core::ExploreResult& result,
                             std::uint64_t fires);

/// Bounded-backoff respawn wrapper around one campaign execution:
/// retries `runner` up to `max_respawns` times when it throws,
/// incrementing `*respawns` per retry; on exhaustion fills `*error`
/// (the sweep-error verdict) and returns a default result.
core::ExploreResult run_plan_with_respawn(
    const std::function<core::ExploreResult()>& runner, int max_respawns,
    double backoff_ms, std::uint64_t* respawns, std::string* error);

SweepResult run_sweep(const SweepOptions& options,
                      const mpism::ProgramFn& program);

/// Machine-readable crash-tolerance report. Byte-identical for the same
/// (program, options, budget, seed) at any worker count and across
/// kill/resume: it carries no timing and no executed/resumed split.
std::string format_sweep_report_json(const SweepOptions& options,
                                     const SweepResult& result);

/// Human summary (verdict matrix, coverage, resume accounting).
std::string format_sweep_summary(const SweepOptions& options,
                                 const SweepResult& result);

/// CLI contract: 3 sweep failure, 1 crash-tolerance bugs found
/// (deadlock/hang/latent-error plans), 2 partial coverage
/// (interrupted, partial campaigns, or sweep-error plans), 0 clean.
int sweep_exit_code(const SweepResult& result);

}  // namespace dampi::sweep
