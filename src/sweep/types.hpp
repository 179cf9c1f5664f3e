// Fault-sweep vocabulary: per-plan verdicts and the crash-tolerance
// record one injection campaign produces.
//
// A sweep enumerates single-point fault plans over a program's op
// inventory and runs one bounded exploration campaign per plan. Each
// campaign collapses to one Verdict — the cell of the crash-tolerance
// matrix for that injection point.
#pragma once

#include <cstdint>
#include <string>

namespace dampi::sweep {

/// Outcome of one plan's campaign, in report-priority order: a campaign
/// that deadlocked AND errored reports the deadlock (the stronger
/// crash-tolerance failure).
enum class Verdict {
  /// No bug and the injection never fired (the point was unreachable in
  /// the interleavings explored — e.g. a flaky cap consumed by retries
  /// of an earlier run, or divergence moved the op).
  kClean = 0,
  /// Some interleaving deadlocked under the injection: the classic
  /// crash-tolerance bug (peers block forever on a dead rank).
  kDeadlock,
  /// A per-run watchdog budget expired: possible livelock under the
  /// injection.
  kHang,
  /// Some interleaving ended with a program error verdict — the fault
  /// surfaced (propagated) instead of wedging the run. When the error
  /// set contains a message that is NOT the injected fault itself, the
  /// injection exposed a latent program bug; it travels in
  /// PlanRecord::latent_error.
  kErrorPropagated,
  /// The injection fired but every interleaving still completed clean —
  /// the program (or the explorer's retry path, for flaky points)
  /// masked the fault.
  kMasked,
  /// The campaign itself could not be executed (spawn failure even
  /// after bounded-backoff respawns). Coverage hole, not a program
  /// verdict.
  kSweepError,
};

const char* verdict_name(Verdict verdict);
bool parse_verdict(const std::string& name, Verdict* out);

/// One row of the crash-tolerance matrix: the campaign outcome for one
/// single-point fault plan. Serialized verbatim into the sweep journal
/// and the machine-readable report.
struct PlanRecord {
  std::uint64_t index = 0;    ///< position in the deterministic enumeration
  std::string spec;           ///< canonical fault spec (one point)
  Verdict verdict = Verdict::kClean;
  std::uint64_t interleavings = 0;
  std::uint64_t fires = 0;    ///< FaultPlan::total_fires at campaign end
  std::uint64_t bugs = 0;
  /// The campaign ran out of interleaving/wall budget before exhausting
  /// its search space (not a truncated sweep — a truncated campaign).
  bool partial = false;
  /// First program error not caused by the injection itself (empty when
  /// every error was the injected fault).
  std::string latent_error;
};

/// Which fault families the enumeration emits.
struct SweepKinds {
  bool abort_ = true;
  bool error_ = true;
  bool delay_ = true;
  bool flaky_ = true;
};

/// Canonical comma-joined spelling in fixed family order
/// ("abort,delay,error,flaky" subset); folded into the sweep
/// fingerprint.
std::string sweep_kinds_spec(const SweepKinds& kinds);

/// Parse "abort,delay" etc. ("all" = everything). Returns false and
/// fills *error on an unknown family name.
bool parse_sweep_kinds(const std::string& spec, SweepKinds* out,
                       std::string* error);

}  // namespace dampi::sweep
