// Configuration of the DAMPI verifier.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/decision.hpp"
#include "core/por.hpp"
#include "mpism/cancel.hpp"
#include "mpism/cost_model.hpp"
#include "mpism/fault.hpp"
#include "mpism/match_index.hpp"
#include "mpism/policy.hpp"
#include "mpism/scheduler.hpp"
#include "mpism/tool.hpp"
#include "piggyback/transport.hpp"

namespace dampi::core {

struct Checkpoint;
struct EscapedAlt;

/// Which causality tracker drives late-message analysis. Lamport is the
/// paper's scalable default; Vector restores the completeness lost on
/// cross-coupled patterns (paper §II-F) at O(N) piggyback size.
enum class ClockMode { kLamport, kVector };

/// A per-run factory of per-rank tool-layer stacks, used to prepend
/// layers above DAMPI's (the ISP baseline injects its scheduler-cost
/// layer this way). Invoked once per run so run-scoped shared state (a
/// fresh scheduler timeline) can be created.
using LayerStackFactory =
    std::function<std::vector<std::unique_ptr<mpism::ToolLayer>>(int rank,
                                                                 int nprocs)>;

/// Per-run observability record handed to ExplorerOptions::run_stats the
/// moment a replay finishes, on the exploring thread.
struct RunStats {
  /// 1-based index of the run in the exploration order (a retried run
  /// is announced once per attempt, under the same index).
  std::uint64_t interleaving = 0;
  bool completed = false;     ///< run finished without deadlock/abort
  double wall_seconds = 0.0;  ///< real time this single replay took
  double vtime_us = 0.0;      ///< simulated virtual time of the replay
};

struct ExplorerOptions {
  int nprocs = 2;

  ClockMode clock_mode = ClockMode::kLamport;
  piggyback::TransportKind transport =
      piggyback::TransportKind::kSeparateMessage;

  /// Bounded mixing (paper §III-B2): after flipping an epoch decision,
  /// record alternatives only for the first k epochs discovered below the
  /// flip. nullopt = unbounded (full depth-first coverage); 0 degenerates
  /// to ~(one flip per alternative of the initial trace).
  std::optional<int> mixing_bound;

  /// Future work from §VI, implemented: automatic loop-iteration
  /// detection. After this many *consecutive* ND events with an
  /// identical signature (communicator, tag, receive-vs-probe) on one
  /// rank, further identical events are treated like a Pcontrol region —
  /// they keep their self-run match and contribute no alternatives. This
  /// is the "recognize patterns of MPI operations and safely ignore such
  /// regions" mechanism; 0 disables it. The first `threshold` iterations
  /// of every loop are still explored, so distinct early behaviour keeps
  /// coverage.
  int auto_loop_threshold = 0;

  /// The fix §V sketches as future work, implemented: keep a *pair* of
  /// clocks — one driving wildcard epochs, one piggybacked on outgoing
  /// traffic — synchronized only when the wildcard's Wait/Test
  /// completes. A barrier or send issued between an Irecv(*) and its
  /// Wait then transmits the pre-epoch clock, so the competing send of
  /// Fig. 10 is correctly classified late and the omission disappears.
  bool deferred_clock_sync = false;

  /// Decisions forced onto the *initial* discovery run (normally empty:
  /// a pure SELF_RUN). Pinning the first run makes exploration
  /// reproducible on programs whose initial wildcard matching depends on
  /// OS scheduling — the DFS then enumerates outcomes from a known root
  /// instead of whichever matching the first native race produced.
  /// Under a coop scheduler (`sched.kind == kCoop`) discovery runs are
  /// deterministic by construction, so this pin is optional; when
  /// supplied it is still honored exactly.
  Schedule initial_schedule;

  /// Rank execution model for every run this exploration performs
  /// (discovery and replays alike). Coop fibers (the default) make each
  /// run a deterministic function of (program, schedule, sched policy,
  /// sched seed) and scale to hundreds of ranks on one core;
  /// thread-per-rank reproduces the original engine. Defaults honor
  /// DAMPI_SCHED.
  mpism::SchedOptions sched = mpism::default_sched_options();

  /// Matcher and engine lock for every run (discovery and replays). The
  /// linear matcher and the global lock are differential oracles that
  /// tests select here; both walk bit-identically to the defaults. The
  /// lock selects thread-mode locking only: under coop the engine takes
  /// no lock.
  mpism::MatchKind match = mpism::MatchKind::kIndexed;
  mpism::EngineLockKind engine_lock = mpism::EngineLockKind::kSharded;

  /// Partial-order reduction of the DFS walk (core/por.hpp): sleep-set
  /// pruning over provably commuting epoch decisions, or the full
  /// cross-product walk kept as the differential oracle for tests.
  /// Pruning needs vector timestamps — under Lamport clocks every
  /// decision is conservatively dependent and the two modes walk
  /// identically. The pruned walk finds the same bug set and the same
  /// per-epoch outcome sets in ≤ interleavings (tests/test_por.cpp
  /// gates this).
  PorMode por = PorMode::kSleep;

  /// Search budget.
  std::uint64_t max_interleavings = 1u << 20;
  double max_wall_seconds = 1e9;

  /// Unused: nothing in the verifier reads it. A walk replays on its
  /// own thread; parallelism comes from sharding a campaign across
  /// worker processes (src/dist/). Kept only so the perfbench harness,
  /// which still assigns it, builds unchanged.
  int jobs = 1;

  /// Observability: invoked once per completed replay. See RunStats.
  std::function<void(const RunStats&)> run_stats;

  /// Runtime knobs for each run.
  mpism::PolicyKind policy = mpism::PolicyKind::kLowestSource;
  std::uint64_t policy_seed = 1;
  mpism::CostModel cost;

  /// Virtual-time cost of DAMPI's own bookkeeping, charged by the layer:
  /// per wildcard epoch recorded (dominated by writing the epoch /
  /// potential-match record to the on-disk log the schedule generator
  /// reads) and per late-message comparison. These are what make
  /// wildcard-heavy codes (milc in Table II) an order of magnitude
  /// slower under DAMPI while deterministic codes stay near 1x.
  double epoch_record_cost_us = 150.0;
  double late_analysis_cost_us = 0.2;

  /// Extra layers stacked above DAMPI's per run (ISP baseline).
  std::function<LayerStackFactory()> extra_layers_per_run;

  /// --- Resilience ---------------------------------------------------------

  /// Per-run watchdog budgets applied to every run this exploration
  /// performs (discovery and replays; 0 = unlimited). A run exceeding
  /// any of them is reported as a kHang bug with its reproducing
  /// schedule, instead of wedging the campaign.
  double run_deadline_seconds = 0.0;
  std::uint64_t max_run_ops = 0;

  /// Failed replays (program errors, injected faults, watchdog
  /// timeouts) are re-executed up to this many times before their
  /// decision subtree is quarantined. A replay of the same schedule
  /// fails the same way unless host load caused the failure, so the
  /// retry runs at once, with a backoff (1 ms, doubling, capped at 1 s)
  /// only after a run wall deadline (`run_deadline_seconds`) expired.
  /// Deadlocks are verdicts, never retried.
  int max_retries = 0;

  /// External cancellation (SIGINT bridge, tests); may be unset. The
  /// wall budget does not go through it: every replay is armed with the
  /// campaign's deadline (`max_wall_seconds`), which ends even an
  /// in-flight replay.
  std::shared_ptr<mpism::CancelSource> cancel;

  /// Deterministic fault injection applied to every run (see
  /// mpism/fault.hpp). Shared across runs so flaky points count their
  /// fires campaign-wide.
  std::shared_ptr<mpism::FaultPlan> fault;

  /// Crash-safe journal of the DFS frontier: when `checkpoint_path` is
  /// non-empty, the frontier is written there (atomic tmp+rename) every
  /// `checkpoint_interval` interleavings and at every walk exit
  /// (completion, budget, cancellation). `checkpoint_tag` — typically
  /// the program name — is folded into the options fingerprint a resume
  /// validates.
  std::string checkpoint_path;
  std::uint64_t checkpoint_interval = 64;
  std::string checkpoint_tag;

  /// Restored frontier from load_checkpoint(): the walk skips discovery
  /// and continues where the journal left off. The fingerprint check
  /// happens at load time.
  std::shared_ptr<const Checkpoint> resume_from;

  /// --- Distributed sharding (src/dist/) -----------------------------------

  /// Stop after the discovery run (or the resume_from restore): judge the
  /// first run, extend the frontier once, and return without walking it.
  /// Implies export_frontier. This is how the campaign coordinator
  /// obtains the frame stack it shards across worker processes.
  bool discovery_only = false;

  /// Copy the final frame stack into ExploreResult::frontier at every
  /// walk exit (cheap; off by default because the stack can be large).
  bool export_frontier = false;

  /// Invoked the moment an alternative is escaped, on the exploring
  /// thread — the only way an escape leaves a walk. A distributed worker
  /// ships each escape to the coordinator eagerly through this hook: the
  /// send happens before the revealing run can reach the checkpoint
  /// journal, so a worker death never strands an escape inside a
  /// journalled (never re-executed) run. A walk over escape_alts frames
  /// (a shard, or a victim of a steal) must set it: an escape with no
  /// hook fails the walk with an InternalError rather than vanish.
  std::function<void(const EscapedAlt&)> on_escape;

  /// Work-stealing hooks, polled between runs. When steal_poll() returns
  /// true the explorer carves off half of the shallowest non-empty
  /// untried list as a shard checkpoint — transferring ownership of every
  /// prefix site to the coordinator (escape_alts) — and hands it to
  /// on_steal, which must then be set; nullptr means there was nothing
  /// to steal. Both hooks run on the exploring thread. A sweep worker
  /// reads its coordinator channel in a steal_poll that returns false.
  std::function<bool()> steal_poll;
  std::function<void(std::shared_ptr<const Checkpoint>)> on_steal;
};

}  // namespace dampi::core
