// Fault-sweep campaigns: the crash-tolerance matrix of a program.
//
// One fault-free discovery run harvests the per-rank op inventory
// (inventory.hpp); a deterministic enumeration turns it into
// single-point fault plans under a budget — every (rank, op) abort and
// error point, plus seeded-RNG-sampled delay and flaky perturbations —
// and each distinct behaviour gets the outcome of one bounded
// exploration campaign, with the explorer's watchdog/retry/quarantine
// machinery: plans whose points do the same thing at the same (rank,
// op) — abort@R:OP and error@R:OP, an MPI error being fatal under
// MPI_ERRORS_ARE_FATAL — share one walk and record its outcome under
// each spec. None of them runs a campaign of its own on the default
// coop scheduler without extra layers. Delay and flaky plans cannot
// change the walk (a delay adds only virtual time, a flaky point always
// heals under its retries): the fault-free walk, counting their points,
// gives each its record. An abort or error campaign replays the
// fault-free run of each schedule up to its point, where the run stops.
// So every walk is a lane of one loop that steps in lockstep over
// shared fault-free replays, run whole: an abort or error lane takes
// each replay cut at its point (core::cut_view), the fault-free lane
// takes it as it is. In process all lanes are one batch; with
// `workers` > 1 the lanes of one fault rank are a batch and the
// fault-free lane another, handed out as PLAN frames through the same
// pool (dist/pool.hpp) a distributed campaign shards over. Each plan
// is classified into one Verdict, making the final report a pure
// function of (program, options, budget, seed) at any worker count.
//
// Robustness both ways: per-plan interleaving/wall budgets bound each
// walk, the batch of a worker that dies is requeued (and its plans
// recorded sweep-error after repeated deaths), and completed plans
// stream into a crash-safe journal (journal.hpp), which only the
// coordinator writes, so a killed sweep resumes without re-running
// anything it finished.
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

  /// Worker processes running batches of plans; 1 runs the plans in
  /// this process. Does not affect the report payload.
  int workers = 1;
  /// Base argv of a plan worker, as DistOptions::worker_argv: each is
  /// spawned with `--worker --worker-id N --coordinator-socket fd:M`
  /// appended and must HELLO with this sweep's sweep_fingerprint (a
  /// verify_cli given this sweep's flags, say). Needed when workers > 1.
  std::vector<std::string> worker_argv;

  /// Per-plan campaign budgets (verdict-affecting: fingerprinted).
  std::uint64_t plan_max_interleavings = 256;
  /// Wall-clock safety net per campaign, spent by the replays its walk
  /// takes; expiry marks the plan partial.
  double plan_wall_seconds = 60.0;

  /// Crash-safe journal of completed plans (empty = none). With
  /// `resume`, a compatible journal's plans are not re-executed.
  std::string journal_path;
  bool resume = false;

  /// Sweep-wide cancellation (SIGINT bridge): in-flight campaigns are
  /// cancelled, completed plans stay journalled, the sweep reports
  /// interrupted.
  std::shared_ptr<mpism::CancelSource> cancel;

  /// Invoked once per completed plan, in the coordinating process
  /// (progress display).
  std::function<void(const PlanRecord&)> on_plan_done;
};

struct SweepResult {
  OpInventory inventory;
  /// Completed plans in enumeration order. An interrupted sweep holds
  /// only the plans finished before the cancel.
  std::vector<PlanRecord> records;
  std::uint64_t planned = 0;    ///< plans enumerated before truncation
  std::uint64_t truncated = 0;  ///< dropped by the budget
  /// Plans that ran a walk of their own — their own campaign, or a walk
  /// derived from replays shared with the other plans of their batch —
  /// sweep-error records of abandoned plans included.
  std::uint64_t executed = 0;
  /// Plans recorded without a walk of their own: copies of another
  /// plan's record — plans whose points have one effect at one
  /// (rank, op) (mpism::fault_effect), such as abort@R:OP and error@R:OP,
  /// have one walk between them — and the delay and flaky plans
  /// observed on the fault-free walk, sweep-error records included.
  std::uint64_t shared = 0;
  std::uint64_t resumed = 0;    ///< satisfied from the journal
  std::uint64_t requeued = 0;   ///< batches resent after their worker died
  /// Program runs this sweep made, in this process and on its workers
  /// (the registry's engine.runs over the sweep, the inventory harvest's
  /// included).
  std::uint64_t replays = 0;
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

SweepResult run_sweep(const SweepOptions& options,
                      const mpism::ProgramFn& program);

/// A plan worker of a `workers` > 1 sweep: joins the coordinator over
/// `socket_spec` ("fd:N"), then runs each PLAN's batch with the code the
/// serial loop runs and answers with a sweep journal holding a record
/// per plan.
/// Returns 0 after SHUTDOWN, nonzero when the channel or protocol fails.
int run_sweep_worker(const std::string& socket_spec, int worker_id,
                     SweepOptions options, const mpism::ProgramFn& program);

/// Machine-readable crash-tolerance report. Byte-identical for the same
/// (program, options, budget, seed) at any worker count and across
/// kill/resume: it carries no timing and no executed/shared/resumed
/// split.
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
