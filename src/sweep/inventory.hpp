// Fault-free op-inventory discovery: what a sweep can inject into.
//
// The fault grammar names points by (rank, op_index) where op_index is
// the 1-based count of the rank's MPI calls crossing the tool stack —
// the coordinate FaultLayer fires on. The inventory harvests exactly
// that coordinate space with one instrumented fault-free run: a
// counting layer stacked where FaultLayer would sit records, per rank,
// one kind character per call ('s' isend, 'r' irecv, 'w' wait,
// 'p' probe, 'c' collective). Deterministic under the coop scheduler,
// which is what makes the downstream plan enumeration (and therefore
// the whole sweep report) a pure function of (program, options, seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "mpism/runtime.hpp"

namespace dampi::sweep {

/// Deterministic hang watchdog for every run a sweep makes (the
/// inventory harvest and each campaign) whose base options carry no op
/// budget of their own: a run exceeding this many engine ops is a kHang
/// verdict (livelock), independent of host speed. Verdict-affecting, so
/// the sweep fingerprint prints it (`planops=`).
inline constexpr std::uint64_t kSweepMaxRunOps = 1u << 20;

struct OpInventory {
  /// ops[rank][i] is the kind of rank's (i+1)-th MPI call.
  std::vector<std::string> ops;
  /// The discovery run's own outcome, so a sweep over a program that is
  /// already buggy fault-free says so instead of attributing the bug to
  /// every injection point.
  bool baseline_deadlocked = false;
  bool baseline_errored = false;
  bool baseline_hung = false;  ///< stopped by an op budget or run deadline
  std::string error;  ///< non-empty when the harvest itself failed

  std::uint64_t total_ops() const {
    std::uint64_t total = 0;
    for (const std::string& rank_ops : ops) total += rank_ops.size();
    return total;
  }
  std::uint64_t max_ops() const {
    std::uint64_t most = 0;
    for (const std::string& rank_ops : ops) {
      if (rank_ops.size() > most) most = rank_ops.size();
    }
    return most;
  }
};

/// One fault-free guided run of `program` under `base` (fault plan and
/// resilience hooks stripped, kSweepMaxRunOps applied when `base` sets
/// no op budget), harvesting the per-rank op inventory. A deadlocking,
/// erroring or hung baseline still yields the ops counted up to the
/// stop — those are valid injection coordinates.
OpInventory harvest_inventory(const core::ExplorerOptions& base,
                              const mpism::ProgramFn& program);

}  // namespace dampi::sweep
