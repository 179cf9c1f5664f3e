// Pluggable rank scheduling for the mpism engine.
//
// The engine executes one program instance per rank; how those instances
// share the host is a policy question this interface isolates:
//
//  - ThreadScheduler: one OS thread per rank (the original engine
//    behaviour). Preemption points are wherever the OS puts them, so
//    wildcard match order on a native run depends on host scheduling.
//  - CoopScheduler: every rank is a fiber on the *calling* thread, with
//    its own guard-paged stack. A rank runs until it blocks in an MPI
//    operation, then yields to the scheduler, which deterministically
//    picks the next runnable rank (round-robin, seeded-random, or
//    seeded-priority).
//    Native runs become bit-reproducible by construction, and rank
//    counts in the hundreds cost fibers instead of OS threads — the
//    run-to-block discipline of centralized-scheduler verifiers (ISP,
//    MPI-SV) applied to the paper's eager-matching simulator.
//
// Contract: the engine's state is guarded by an EngineLock (see
// engine_lock.hpp) whose mode follows `single_threaded()`: a scheduler
// that runs every rank on the calling thread (coop) gets an unlocked
// engine whose guards are no-ops; the thread scheduler gets one global
// mutex or per-rank shards. `block`/`yield` are called by a rank holding
// an EngineGuard over its state and return with the same guard held once
// its wait condition `waits[rank].ready()` (wait_on.hpp) or `stop()` is
// true; the scheduler releases and reacquires the guard around the
// actual park.
// `wake`/`wake_all` may be called from any thread, with or without
// shards held (they only touch scheduler-internal leaf state), and are
// hints — a scheduler may wake spuriously but must never lose a wakeup.
// The engine wakes a blocked rank after every event that can make its
// wait condition true, so a scheduler may re-check a blocked rank only
// when it has been woken since its condition was last seen false.
// `waits[r]` is only ever evaluated by rank r itself under its own
// guard (ThreadScheduler) or by the single dispatch thread
// (CoopScheduler), so the condition reads rank-r state race-free. Under
// the coop scheduler a stall (no runnable rank, not all finished) is
// reported through `on_stall`, which must acquire whatever engine locks
// it needs itself; with eager matching this is an exact deadlock
// criterion, replacing the engine's own count-based check (see
// Engine::maybe_declare_deadlock).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mpism/engine_lock.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

enum class SchedulerKind { kThread, kCoop };

/// How the coop scheduler picks among runnable ranks. All three are
/// deterministic functions of (seed, pick history), so a given
/// (policy, seed) pair replays the same interleaving every time.
enum class SchedPolicy { kRoundRobin, kRandomSeeded, kPriority };

struct SchedOptions {
  SchedulerKind kind = SchedulerKind::kCoop;
  SchedPolicy pick = SchedPolicy::kRoundRobin;
  std::uint64_t seed = 1;
};

struct WaitOn;

class RankScheduler {
 public:
  /// Engine-provided hooks. See the locking contract in the header
  /// comment: waits[r] is evaluated only by rank r (under its guard) or
  /// by the coop dispatch thread; stop() reads only atomics;
  /// on_stall/on_deadline acquire their own engine locks.
  struct Callbacks {
    /// Runs one rank's program instance to completion; must not throw
    /// (the engine catches everything inside).
    std::function<void(Rank)> body;
    /// One wait condition per rank, indexed by rank: what a blocked rank
    /// waits for (WaitOn::Kind::kNone while it is not blocked).
    const WaitOn* waits = nullptr;
    /// True once the run is aborting or deadlocked: every parked rank
    /// must be released so it can unwind. Reads only atomics — callable
    /// from any thread without locks.
    std::function<bool()> stop;
    /// No rank is runnable and not all have finished (coop only).
    /// Called lock-free; acquires what it needs and must make stop()
    /// true.
    std::function<void()> on_stall;
    /// Wall-clock deadline for the whole run; the epoch time_point (the
    /// default) means unarmed. CoopScheduler checks it in its dispatch
    /// loop (amortized over 64 dispatches) — that is what catches a
    /// yield-looping spinner, whose yields never pass through the
    /// engine's blocking paths. ThreadScheduler ignores it: a parked
    /// rank is released by stop() when a peer's per-op budget charge or
    /// the stall detector declares the verdict, so its waits stay
    /// untimed and off the message critical path.
    std::chrono::steady_clock::time_point deadline{};
    /// Invoked lock-free when `deadline` has passed and the run has not
    /// stopped. Must be idempotent and must make stop() true.
    std::function<void()> on_deadline;
  };

  virtual ~RankScheduler() = default;

  /// Executes `body` for ranks 0..nprocs-1; returns when all finished.
  /// Called once per run of a reused engine: every call starts from the
  /// scheduler's initial state (same picks for the same program).
  virtual void run(const Callbacks& cb) = 0;
  /// Parks the calling rank until waits[r] is ready or stop(). `g` holds
  /// the rank's engine guard on entry and on return; the scheduler
  /// releases it while parked.
  virtual void block(EngineGuard& g, Rank r) = 0;
  /// Cedes the processor without blocking: the rank stays runnable and
  /// will be rescheduled per policy. Called when a non-blocking poll
  /// (test*/iprobe) observes "not ready" — under run-to-block execution
  /// a busy-poll loop would otherwise starve every other rank forever.
  /// No-op for preemptive schedulers.
  virtual void yield(EngineGuard& g, Rank r) {
    (void)g;
    (void)r;
  }
  /// Hints that r's wait condition may have flipped. Callable from any
  /// thread; takes only scheduler-leaf locks, so it is safe (and usual)
  /// to call while holding engine shards.
  virtual void wake(Rank r) = 0;
  /// Called after stop() turned true, possibly from another thread
  /// (external cancellation): every parked rank must come back to see
  /// it. The coop scheduler needs no hint, since its dispatch loop
  /// checks stop() before every pick.
  virtual void wake_all() = 0;
  /// True when this scheduler performs its own stall (deadlock)
  /// detection via on_stall, making the engine's count-based check both
  /// redundant and wrong (a runnable-but-unscheduled rank is neither
  /// blocked nor finished yet must not trip "everyone is stuck").
  virtual bool detects_stall() const = 0;
  /// True when every rank runs on the thread that called run(), so
  /// nothing but external cancellation (atomics, wake hints, the verdict
  /// mutex) reaches the engine concurrently and its EngineLock is built
  /// unlocked. Coop: true; thread: false.
  virtual bool single_threaded() const = 0;
  virtual const char* name() const = 0;
};

/// Always true: the coop scheduler works in every build, sanitized ones
/// included (its fiber switches are annotated for ASan and TSan). Kept
/// only for callers that still guard on it.
bool coop_supported();

std::unique_ptr<RankScheduler> make_scheduler(const SchedOptions& options,
                                              int nprocs);

/// Parse a CLI/env scheduler spec: "thread", "coop" (round-robin),
/// "coop-rr", "coop-random", "coop-priority". Returns false (leaving
/// `out` untouched) on anything else.
bool parse_sched_spec(const std::string& spec, SchedOptions* out);

/// Canonical spec string for the given options (inverse of parse).
std::string sched_spec(const SchedOptions& options);

/// Process-wide default: SchedOptions{} (coop round-robin) unless the
/// DAMPI_SCHED environment variable holds a valid spec (read once,
/// cached). DAMPI_SCHED=thread
/// lets tier-1 re-run the full test suite on OS threads without touching
/// every call site.
const SchedOptions& default_sched_options();

}  // namespace dampi::mpism
