// Explorer: DAMPI's Schedule Generator. Runs the program once in
// SELF_RUN, then performs a depth-first walk over the recorded epoch
// decisions, forcing alternate matches in guided replays — "successively
// force alternate matches at the last step; then at the penultimate
// step; and so on until all Epoch Decisions are exhausted" (§II-B).
//
// Stateless search: every interleaving is a fresh run of the program
// under a decision file (executed in a reused ReplayContext, so "fresh"
// costs a reset, not a rebuild). Bounded mixing caps how deep below a
// freshly flipped decision new alternatives are recorded. The search
// itself is a Walk, stepped by whoever replays its schedules.
#pragma once

#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/decision.hpp"
#include "core/epoch.hpp"
#include "core/options.hpp"
#include "core/por.hpp"
#include "core/replay_context.hpp"
#include "mpism/report.hpp"
#include "mpism/runtime.hpp"

namespace dampi::core {

/// A bug found during exploration, with the decision file that reproduces
/// the interleaving exposing it.
struct BugRecord {
  /// kHang: the run exceeded its per-run watchdog budget (a possible
  /// livelock / hang); the stop reason travels in deadlock_detail.
  enum class Kind { kDeadlock, kError, kHang };
  Kind kind = Kind::kError;
  std::uint64_t interleaving = 0;  ///< 1-based run index
  std::vector<mpism::ErrorInfo> errors;
  std::string deadlock_detail;
  Schedule schedule;
};

/// One pending decision of the DFS walk. Namespace-scope (not
/// Explorer-private) because the checkpoint journal persists the frame
/// stack verbatim — it IS the search frontier.
struct DfsFrame {
  EpochKey key;
  std::uint64_t lc = 0;
  mpism::Rank taken_src = -1;
  std::vector<mpism::Rank> untried;
  /// Every source ever queued for this epoch (taken, untried, or slept);
  /// later runs may reveal alternatives the creating run could not see,
  /// and those are merged exactly once.
  std::set<mpism::Rank> seen;
  /// Sleep set (POR, DESIGN.md §4.14): sources fully explored at this
  /// decision site in a commuting sibling subtree. They sit in `seen` as
  /// well — that is what keeps prefix-merging and the distributed
  /// per-site dedup from resurrecting a pruned schedule — and are kept
  /// separately so checkpoints, escapes, and metrics can tell a pruned
  /// source from an explored one.
  std::set<mpism::Rank> sleep;
  /// Decision footprint for the independence relation, captured from the
  /// creating run's EpochRecord: communicator, posted tag, and the
  /// vector timestamp at epoch open (empty under Lamport clocks). The
  /// candidate source set is `seen`.
  mpism::CommId comm = mpism::kCommWorld;
  mpism::Tag tag = mpism::kAnyTag;
  std::vector<std::uint64_t> vc;
  /// False when the frame was created outside the bounded-mixing
  /// window or inside a loop-abstraction region: it takes whatever the
  /// run gives it and never accumulates alternatives.
  bool record_alts = true;
  /// Remaining bounded-mixing budget: how many epochs below a flip of
  /// this frame may still record alternatives. Windows are anchored,
  /// not sliding — a frame discovered at depth d inside a window of
  /// budget b carries b - d, so exploration below an initial-trace
  /// epoch never exceeds k levels (paper §III-B2: "recursively explore
  /// all paths below that option up to depth k").
  int mix_budget = 0;
  /// Sharded exploration: this frame's decision site is owned by the
  /// campaign coordinator, not this walk. Newly revealed alternatives
  /// are handed to ExplorerOptions::on_escape (for central dedup and
  /// re-sharding) instead of being merged into `untried` locally — the
  /// mechanism behind the exactly-once shard accounting invariant
  /// (DESIGN.md §4.12). Set on every prefix frame of a shard checkpoint
  /// and on frames whose site ownership was transferred by a steal.
  bool escape_alts = false;
};

/// The independence relation's view of one pending decision (por.hpp):
/// candidates are every source ever seen at the site. Shared with the
/// campaign coordinator, which uses it to canonicalize escape site ids
/// under POR sleep.
DecisionFootprint frame_footprint(const DfsFrame& frame);

/// An alternative revealed for an escape_alts frame: the walk did not
/// explore it; the coordinator dedups it against the site's global seen
/// set and spawns a new shard if it is genuinely new. Carries a snapshot
/// of the stack prefix 0..pos (the site frame and everything above it)
/// because the live stack's taken_src values can change after the escape
/// — later flips of the site frame, or a steal that transfers deeper
/// locally-grown frames — and the site is defined by the decisions in
/// force when the alternative was revealed.
struct EscapedAlt {
  std::vector<DfsFrame> frames;  ///< stack[0..pos] at escape time
  mpism::Rank src = -1;
};

struct ExploreResult {
  std::uint64_t interleavings = 0;
  std::vector<BugRecord> bugs;

  /// --- Partial-order reduction (sleep mode) ----------------------------
  /// Sources put to sleep instead of re-enumerated (each is one whole
  /// replay subtree the walk skipped re-rooting).
  std::uint64_t por_pruned = 0;
  /// Harvested/new frame pairs the relation judged dependent (kept).
  std::uint64_t por_dependent_pairs = 0;
  /// Alternative enumerations suppressed because the source was asleep.
  std::uint64_t por_sleep_hits = 0;

  /// First (SELF_RUN) execution data — what Table II reports.
  mpism::RunReport first_report;
  std::uint64_t wildcard_recv_epochs = 0;  ///< R*
  std::uint64_t wildcard_probe_epochs = 0;
  std::uint64_t potential_matches_first_run = 0;
  double first_run_vtime_us = 0.0;

  /// Aggregates over every interleaving.
  double total_vtime_us = 0.0;  ///< sum of per-run virtual times
  double total_wall_seconds = 0.0;
  std::vector<std::string> unsafe_alerts;  ///< deduplicated
  std::uint64_t divergences = 0;
  std::uint64_t prefix_mismatches = 0;

  bool interleaving_budget_exhausted = false;
  bool time_budget_exhausted = false;

  /// --- Resilience accounting -------------------------------------------
  /// Failed (errored/timed-out) replays re-executed; also counted in the
  /// registry as explorer.retries, beside explorer.retry_backoffs (the
  /// retries that first slept because a run wall deadline ended the run).
  std::uint64_t retries = 0;
  /// Runs ended by the per-run watchdog (each also yields a kHang bug).
  std::uint64_t timeouts = 0;
  /// Decision subtrees skipped because their root replay failed even
  /// after retries (the walk degrades gracefully instead of aborting).
  std::uint64_t quarantined = 0;
  std::uint64_t checkpoint_writes = 0;
  /// An external CancelSource (SIGINT etc.) ended the walk early; the
  /// final checkpoint flush holds the frontier for --resume.
  bool interrupted = false;
  /// This walk continued from a checkpoint: bugs/interleavings include
  /// the journalled portion, first-run (R*) stats are zero — only the
  /// original walk executed the discovery run.
  bool resumed = false;

  /// --- Distributed sharding ---------------------------------------------
  /// Final frame stack, exported when ExplorerOptions::export_frontier
  /// (or discovery_only) is set — the unit of work split_frontier()
  /// shards across worker processes.
  std::vector<DfsFrame> frontier;

  bool found_bug() const { return !bugs.empty(); }
};

/// Called after every judged run; lets tests collect per-interleaving
/// outcomes (e.g. to compare coverage against a brute-force oracle).
using RunObserver = std::function<void(
    const RunTrace&, const mpism::RunReport&, const Schedule&)>;

/// One exploration, one step at a time: next() names the schedule to
/// replay, take() judges the run of it, and finish() gives the result
/// once next() has nothing left. The walk never replays anything itself,
/// so whoever drives it chooses how: Explorer::explore replays each
/// schedule in one ReplayContext; a fault sweep feeds many walks the
/// views (cut_view) of replays they share.
class Walk {
 public:
  /// How the wall budget (ExplorerOptions::max_wall_seconds) is spent:
  /// by the wall clock since the walk began, or only by the replay time
  /// handed to take() — a walk fed shared replays is charged for the
  /// replays it consumed, not for those it waited on.
  enum class Clock { kWall, kCharged };
  /// Receives each bug the walk finds in place of ExploreResult::bugs,
  /// which then stays empty (no reproducer schedule is built): a caller
  /// that only tallies bugs keeps its memory flat.
  using BugHook =
      std::function<void(BugRecord::Kind, const mpism::RunReport&)>;

  explicit Walk(ExplorerOptions options, RunObserver observer = {},
                Clock clock = Clock::kWall, BugHook on_bug = {});

  /// The schedule to replay next, or nullptr once the walk is over. The
  /// same schedule comes back until take() judges a run of it (a retry
  /// asks for the schedule again too).
  const Schedule* next();
  /// 1-based interleaving index of the schedule next() returned.
  std::uint64_t index() const { return result_.interleavings + 1; }
  /// The deadline the replay of that schedule must be armed with ({} =
  /// none), asked for just before the replay: a run still going when the
  /// wall budget runs out ends cancelled.
  std::chrono::steady_clock::time_point deadline();
  /// Judges a run of the schedule next() returned, which took
  /// `wall_seconds` to replay. Under Clock::kCharged a cancelled run that
  /// neither the walk's cancel source nor its own deadline ended is not
  /// the walk's to judge (a replay shared with a walk whose deadline
  /// came first): it is ignored, uncharged, and next() asks again.
  /// Returns false for such a run, true for every run it took.
  bool take(const SingleRun& run, double wall_seconds);
  /// The outcome (after the final checkpoint flush).
  ExploreResult finish();

 private:
  double elapsed() const;
  bool cancelled() const;
  /// Marks a walk cut short by a cancelled run or a cancel between
  /// runs: out of time once the wall budget is spent, interrupted
  /// otherwise.
  void mark_stopped();
  void flush_checkpoint();
  void record_bug(const mpism::RunReport& report, const Schedule& schedule,
                  const RunTrace& trace);
  /// Judges the run of the discovery schedule / of a flip.
  void judge_discovery(const SingleRun& run);
  void judge_flip(const SingleRun& run);

  /// Append new frames discovered by a run; `flip_pos` is the stack index
  /// that was flipped to trigger it (-1 for the initial run).
  void extend_stack(const RunTrace& trace, int flip_pos);

  /// Prefix of the schedule a flip of stack_[i] would force: decisions of
  /// frames 0..i-1 plus frame i's key mapped to `alt` (into `*out`,
  /// whose storage is reused).
  void schedule_for(int frame_pos, mpism::Rank alt, Schedule* out) const;

  ExplorerOptions options_;
  RunObserver observer_;
  Clock clock_;
  BugHook on_bug_;
  std::string fingerprint_;
  std::chrono::steady_clock::time_point t0_;
  /// Replay time taken so far, and the last deadline() handed out
  /// (Clock::kCharged).
  double charged_ = 0.0;
  std::chrono::steady_clock::time_point deadline_{};

  ExploreResult result_;
  std::unordered_set<std::string> alert_keys_;
  std::vector<DfsFrame> stack_;
  /// extend_stack scratch, kept across runs: the trace's epochs by key
  /// (binary-searched for the prefix frames) and which of the sorted
  /// epochs the prefix already covers.
  std::vector<std::pair<EpochKey, std::size_t>> by_key_;
  std::vector<char> in_prefix_;
  /// The schedule being replayed (storage reused across flips).
  Schedule schedule_;
  /// Fully explored frames harvested at the last stack truncation
  /// (POR sleep): each carries the seen set of a subtree that is done.
  /// extend_stack() puts those sources to sleep in the sibling subtree's
  /// matching frames when the decision commutes with the flip, then
  /// clears the harvest. Journalled in the checkpoint so a kill between
  /// the truncation and the extension does not lose pruning state (the
  /// resumed walk must replay the uninterrupted walk exactly).
  std::vector<DfsFrame> pending_sleep_;

  /// schedule_ awaits its run; flip_ is the frame it flips (-1: the
  /// discovery run), attempt_ the retries it has had.
  bool pending_ = false;
  int flip_ = -1;
  int attempt_ = 0;
  int backoffs_ = 0;
  bool done_ = false;
  bool aborted_discovery_ = false;
};

class Explorer {
 public:
  explicit Explorer(ExplorerOptions options);

  using RunObserver = core::RunObserver;

  /// A Walk over one warm ReplayContext.
  ExploreResult explore(const mpism::ProgramFn& program,
                        const RunObserver& observer = {});

 private:
  ExplorerOptions options_;
};

}  // namespace dampi::core
