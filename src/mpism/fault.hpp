// Deterministic fault injection for robustness campaigns.
//
// A FaultPlan names injection points by (rank, op_index) — the op index
// is a 1-based count of the rank's MPI calls as they cross the tool
// stack, which is a deterministic coordinate under guided replay. Four
// actions exist:
//
//   abort@R:OP      rank R's OP-th MPI call crashes the rank
//   error@R:OP      rank R's OP-th MPI call fails with an MPI error; under
//                   MPI_ERRORS_ARE_FATAL (the default error handler) that
//                   ends the job, so the run stops exactly as for abort
//   delay@R:OP:US   rank R's OP-th MPI call costs an extra US virtual us
//   flaky@R:OP:N    like abort, but only the first N times the point is
//                   reached across the whole campaign — the
//                   "transient fault" the explorer's retry path exists for
//
// What a point does is its FaultEffect (fault_effect below): abort and
// error share one, so a fault sweep runs an abort/error pair at the same
// (rank, op) once and records the outcome under both specs. Only the
// injected error message names the kind.
//
// A plan can also be count-only: its points count every time they are
// reached and never act, and it notes, per run, the call
// (ToolCtx::call_seq) at which each point was reached. A fault sweep
// installs all its plans' points this way in one fault-free replay and
// runs it whole: an abort or error plan takes that replay cut at its
// point (core::cut_view) in place of the stopped run, and a delay or
// flaky plan, which cannot change a DAMPI walk (nothing decides on
// virtual time, and a flaky point always heals under its retries),
// takes the replay itself and counts its point's reaches as fires.
//
// One FaultPlan instance is shared by every run of an exploration, so
// flaky fire-counters span the campaign, and its canonical spec string
// is folded into checkpoint fingerprints. Plans are canonicalized at
// parse time — points sorted by (rank, op, kind), duplicate
// (rank, op, kind) points rejected — so two spellings of the same plan
// produce identical fingerprints and sweep-journal dedup keys.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpism/tool.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

struct FaultPoint {
  enum class Kind { kAbort, kError, kDelay, kFlaky };
  Kind kind = Kind::kAbort;
  Rank rank = 0;
  std::uint64_t op_index = 1;  ///< 1-based MPI-call count on `rank`
  double delay_us = 0.0;       ///< kDelay only
  std::uint64_t max_fires = 0; ///< kFlaky only: campaign-wide fire cap
};

/// What a point does when it fires, whatever its kind is called: stop
/// the run (abort, error, flaky) or add virtual time (delay). Two points
/// at the same (rank, op) with equal effects give equal campaigns.
struct FaultEffect {
  enum class Action { kStop, kDelay };
  Action action = Action::kStop;
  double delay_us = 0.0;        ///< kDelay: extra virtual us
  std::uint64_t max_fires = 0;  ///< campaign-wide fire cap; 0 = uncapped

  bool operator==(const FaultEffect&) const = default;
};

/// The effect of `point`. FaultPlan and FaultLayer act on this alone, so
/// a key built from it cannot drift from what the layer does.
FaultEffect fault_effect(const FaultPoint& point);

/// A parsed fault campaign plus its shared fire counters.
class FaultPlan {
 public:
  /// A `count_only` plan counts its points and fires none of them.
  explicit FaultPlan(std::vector<FaultPoint> points, bool count_only = false);

  const std::vector<FaultPoint>& points() const { return points_; }
  bool count_only() const { return count_only_; }

  /// True when point `i` should fire now; counts the fire. Thread-safe
  /// (under the thread scheduler each rank calls it from its own thread).
  /// Always false for a count-only plan, which still counts the call.
  bool should_fire(std::size_t i);

  /// How many times point `i` has fired so far (for a count-only plan,
  /// been reached), clamped to a flaky point's cap.
  std::uint64_t fires(std::size_t i) const;
  std::uint64_t total_fires() const;

  /// Per-point fire counters in point order (same clamping as fires()).
  std::vector<std::uint64_t> fire_counts() const;

  /// Where a count-only plan's point was reached in the current run.
  struct Reach {
    std::uint64_t call_seq = 0;  ///< 0 = not reached since reset_reach()
    const char* call = nullptr;  ///< "isend", "wait", ... (FaultLayer)
  };
  /// Count-only plans: clears the reach records for the next run. Call
  /// between runs only.
  void reset_reach();
  const Reach& reach(std::size_t i) const { return reach_[i]; }

  /// Restore fire counters from a checkpoint: each counter becomes
  /// max(current, seed[i]) — monotone, so seeding never re-arms a flaky
  /// point this process already exhausted. Sizes must match; a mismatch
  /// is ignored (the seed came from a different plan). This is what
  /// carries flaky accounting across --resume and into distributed
  /// workers (shards embed the discovery-time counters).
  void seed_fires(const std::vector<std::uint64_t>& seed);

 private:
  friend class FaultLayer;

  std::vector<FaultPoint> points_;
  bool count_only_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> fired_;
  /// Count-only: where each point was reached in the current run
  /// (reset_reach()). Each slot is written only by its point's rank.
  std::vector<Reach> reach_;
};

/// Marker at the start of every injected error's message; an error
/// without it is the program's own.
inline constexpr const char* kInjectedMarker = "fault injected";

/// The error a stop point (abort, error, flaky) raises when it fires at
/// `point`'s call `call` ("isend", "wait", ...).
ErrorInfo injected_error(const FaultPoint& point, const char* call);


/// Parse a comma-separated fault spec (grammar above). Points are
/// canonicalized — sorted by (rank, op, kind) — and duplicate
/// (rank, op, kind) points are rejected. Returns nullptr and fills
/// `*error` on malformed input.
std::shared_ptr<FaultPlan> parse_fault_plan(const std::string& spec,
                                            std::string* error);

/// Canonical spec of one point (e.g. "delay@2:5:1500").
std::string fault_point_spec(const FaultPoint& point);

/// Canonical spec string (inverse of parse_fault_plan; stable across a
/// parse/print round trip, used in checkpoint fingerprints). Identical
/// for semantically identical plans regardless of input spec order.
std::string fault_spec(const FaultPlan& plan);

/// Semantic validation against a rank count: every point's rank must be
/// in [0, nprocs). Returns the empty string when valid, else a
/// diagnostic naming the offending point spec — callers (the CLI) can
/// reject a plan eagerly instead of letting out-of-range points sit
/// silently unreachable at run time.
std::string validate_fault_plan(const FaultPlan& plan, int nprocs);

/// The interposition layer: one per rank, stacked above every other tool
/// so it sees user-facing MPI calls in program order. Counts this rank's
/// calls across all pre_* hooks and fires matching plan points by their
/// effect: a stop (abort, error, flaky) ends the run (ToolCtx::fail_run)
/// with the rank's error "fault injected: ...", so the call never
/// executes; a delay adds its virtual time. Under a count-only plan it
/// counts the points at the same hooks and does nothing else. Points at
/// one call act in plan order, and a stop ends the call's points.
class FaultLayer final : public ToolLayer {
 public:
  /// Indexes `plan`'s points on `rank` by op index.
  FaultLayer(std::shared_ptr<FaultPlan> plan, Rank rank);

  void pre_isend(ToolCtx& ctx, SendCall&) override;
  void pre_irecv(ToolCtx& ctx, RecvCall&) override;
  void pre_wait(ToolCtx& ctx, RequestId) override;
  void pre_probe(ToolCtx& ctx, ProbeCall&) override;
  void pre_collective(ToolCtx& ctx, CollCall&) override;
  /// Rewinds the op counter and the cursor; fire accounting lives in the
  /// shared plan.
  bool reset_for_next_run() override;

 private:
  void on_op(ToolCtx& ctx, const char* what);

  std::shared_ptr<FaultPlan> plan_;
  Rank rank_;
  std::uint64_t ops_ = 0;
  /// This rank's points (plan indices) by op index, ties in plan order,
  /// and the first of them not yet passed in this run: each op looks at
  /// its own points only.
  std::vector<std::size_t> mine_;
  std::size_t next_ = 0;
};

}  // namespace dampi::mpism
