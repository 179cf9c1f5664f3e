// Deterministic fault injection for robustness campaigns.
//
// A FaultPlan names injection points by (rank, op_index) — the op index
// is a 1-based count of the rank's MPI calls as they cross the tool
// stack, which is a deterministic coordinate under guided replay. Four
// actions exist:
//
//   abort@R:OP      rank R's OP-th MPI call crashes the rank
//   error@R:OP      rank R's OP-th MPI call returns an MPI error
//   delay@R:OP:US   rank R's OP-th MPI call costs an extra US virtual us
//   flaky@R:OP:N    like abort, but only the first N times the point is
//                   reached across the whole campaign — the
//                   "transient fault" the explorer's retry path exists for
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

/// A parsed fault campaign plus its shared fire counters.
class FaultPlan {
 public:
  explicit FaultPlan(std::vector<FaultPoint> points);

  const std::vector<FaultPoint>& points() const { return points_; }

  /// True when point `i` should fire now; counts the fire. Thread-safe
  /// (under the thread scheduler each rank calls it from its own thread).
  bool should_fire(std::size_t i);

  /// How many times point `i` has fired so far.
  std::uint64_t fires(std::size_t i) const;
  std::uint64_t total_fires() const;

  /// Per-point fire counters in point order (same clamping as fires()).
  std::vector<std::uint64_t> fire_counts() const;

  /// Restore fire counters from a checkpoint: each counter becomes
  /// max(current, seed[i]) — monotone, so seeding never re-arms a flaky
  /// point this process already exhausted. Sizes must match; a mismatch
  /// is ignored (the seed came from a different plan). This is what
  /// carries flaky accounting across --resume and into distributed
  /// workers (shards embed the discovery-time counters).
  void seed_fires(const std::vector<std::uint64_t>& seed);

 private:
  std::vector<FaultPoint> points_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> fired_;
};

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
/// calls across all pre_* hooks and fires matching plan points: an
/// abort, error or flaky point stops the run (ToolCtx::fail_run) with the
/// rank's error "fault injected: ...", so the call never executes.
class FaultLayer final : public ToolLayer {
 public:
  FaultLayer(std::shared_ptr<FaultPlan> plan, Rank rank);

  void pre_isend(ToolCtx& ctx, SendCall&) override;
  void pre_irecv(ToolCtx& ctx, RecvCall&) override;
  void pre_wait(ToolCtx& ctx, RequestId) override;
  void pre_probe(ToolCtx& ctx, ProbeCall&) override;
  void pre_collective(ToolCtx& ctx, CollCall&) override;
  /// Rewinds the op counter; fire accounting lives in the shared plan.
  bool reset_for_next_run() override;

 private:
  void on_op(ToolCtx& ctx, const char* what);

  std::shared_ptr<FaultPlan> plan_;
  Rank rank_;
  std::uint64_t ops_ = 0;
};

}  // namespace dampi::mpism
