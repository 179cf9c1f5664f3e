// Crash-safe journal of the explorer's DFS frontier.
//
// A checkpoint is everything a resumed walk needs to continue exactly
// where the original left off: the pending frame stack (keys, taken
// sources, untried alternatives, seen-sets, mixing budgets), the
// interleaving counter, the bugs and alerts already collected, and the
// resilience counters. It deliberately does NOT carry discovery-run
// statistics (R*, potential matches) — those describe the one SELF_RUN
// only the original walk executed.
//
// File format (line-oriented, versioned like decision_io's): the header
// must be the first non-blank line; `options` carries the canonical
// fingerprint of every option that affects search semantics and is
// compared whole on load — a mismatch is a clean refusal, never silent
// corruption. Writes go to `<path>.tmp` then rename(2), so a crash
// mid-write leaves the previous checkpoint intact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/options.hpp"

namespace dampi::core {

inline constexpr const char* kCheckpointHeader = "# dampi-checkpoint v1";

struct Checkpoint {
  std::string fingerprint;  ///< options_fingerprint() at save time
  std::uint64_t interleavings = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t divergences = 0;
  std::uint64_t prefix_mismatches = 0;
  std::vector<DfsFrame> frames;
  /// Fully explored frames harvested at the walk's last stack
  /// truncation, not yet consumed by an extension (POR sleep). A kill
  /// landing between the truncation and the next extend_stack would
  /// otherwise lose them — and the resumed walk would explore *more*
  /// interleavings than the uninterrupted one, breaking the kill/resume
  /// exactness contract.
  std::vector<DfsFrame> pending_sleep;
  std::vector<BugRecord> bugs;
  std::vector<std::string> unsafe_alerts;
  /// Fault-plan fire counters (FaultPlan::fire_counts, point order) at
  /// save time; empty without a fault plan. A resumed walk seeds its
  /// plan from these so flaky caps exhausted before the kill stay
  /// exhausted — the same mechanism carries discovery-time counters
  /// into distributed shards. Written as an optional `ffires` line, so
  /// pre-existing journals load unchanged.
  std::vector<std::uint64_t> fault_fires;
};

/// The resumable counters — interleavings, retries, timeouts,
/// quarantined, divergences, prefix mismatches, bugs and alerts — copied
/// from a walk's result into a checkpoint, and back. Every
/// ExploreResult<->Checkpoint copy (the explorer's journal and resume,
/// the DMP1 result payload, the campaign's final journal) goes through
/// this pair, so a counter added later is added here once.
void store_counters(const ExploreResult& result, Checkpoint* checkpoint);
void restore_counters(const Checkpoint& checkpoint, ExploreResult* result);

/// Canonical, human-readable fingerprint of the options that determine
/// search semantics (nprocs, clocks, mixing, scheduler/POR/policy specs
/// + seeds, fault plan, pinned initial schedule, checkpoint_tag).
/// Excludes anything a resume may legitimately change: budgets,
/// retry limits, checkpoint knobs, and the matcher and engine lock,
/// whose modes walk bit-identically (the match and enginelock
/// differential suites).
std::string options_fingerprint(const ExplorerOptions& options);

std::string serialize_checkpoint(const Checkpoint& checkpoint);

/// Parses and validates. `expected_fingerprint` empty skips the
/// fingerprint comparison (the file's own is still required and kept).
std::optional<Checkpoint> parse_checkpoint(
    const std::string& text, const std::string& expected_fingerprint,
    std::string* error);

/// Atomic write via `<path>.tmp` + rename. False on I/O failure.
bool save_checkpoint(const Checkpoint& checkpoint, const std::string& path);

std::optional<Checkpoint> load_checkpoint(
    const std::string& path, const std::string& expected_fingerprint,
    std::string* error);

/// True when every frame (live and pending-sleep) names a rank, a taken
/// source, and untried, seen and sleep sources in [0, nprocs) — the
/// bound validate_schedule checks. A taken (and so seen) source of -1
/// is accepted: it marks an epoch the creating run never completed.
/// Otherwise false with *error (when non-null) naming the first bad
/// frame. The parser cannot check this itself: it does not know the
/// campaign's rank count. Every loader calls it before a walk uses the
/// frames.
bool validate_checkpoint(const Checkpoint& checkpoint, int nprocs,
                         std::string* error = nullptr);

}  // namespace dampi::core
