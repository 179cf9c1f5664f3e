// Epochs and potential matches — the paper's central data structure.
//
// Every non-deterministic event (wildcard receive, flagged wildcard
// probe) starts an epoch on its rank. During the run, each incoming
// message whose piggybacked clock shows it is not causally after an
// epoch, and that is tag/communicator-compatible with it, is recorded as
// a *potential match* for that epoch — keeping only the earliest late
// send per source, which is what MPI's non-overtaking rule permits as an
// alternative.
#pragma once

#include <compare>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "common/flat_map.hpp"
#include "mpism/types.hpp"

namespace dampi::core {

/// Stable identity of an epoch across replays: the rank plus the ordinal
/// of the ND event on that rank. (The paper keys its Epoch Decisions file
/// by Lamport clock value, which replays identically under a forced
/// prefix; the ordinal is the same bookkeeping, robust even if clock
/// update rules change.)
struct EpochKey {
  int rank = -1;
  std::uint64_t nd_index = 0;

  friend auto operator<=>(const EpochKey&, const EpochKey&) = default;
};

/// One alternative match for an epoch: the earliest late send observed
/// from one source.
struct PotentialMatch {
  mpism::Rank src_world = -1;
  std::uint64_t seq = 0;
  mpism::Tag tag = mpism::kAnyTag;
  std::uint64_t msg_id = 0;
  /// ToolCtx::call_seq when this source was first seen late for the
  /// epoch (a later, earlier-sequenced send may replace the fields above
  /// but not this).
  std::uint64_t seen_at = 0;
};

struct EpochRecord {
  EpochKey key;
  /// Lamport clock value when the epoch began (before the tick). Used as
  /// the global trace-ordering component; monotone per rank.
  std::uint64_t lc = 0;
  /// Vector timestamp at the same instant (vector mode only; empty in
  /// Lamport mode).
  std::vector<clocks::VectorClock::Value> vc;

  mpism::CommId comm = mpism::kCommWorld;
  /// Tag as posted by the program (may be kAnyTag).
  mpism::Tag tag = mpism::kAnyTag;
  bool is_probe = false;
  /// Epoch fell inside an MPI_Pcontrol loop-abstraction region: keep the
  /// self-run match, record no alternatives.
  bool in_ignored_region = false;
  /// in_ignored_region was set by the automatic loop detector rather
  /// than a user Pcontrol bracket.
  bool auto_abstracted = false;

  /// Outcome of this epoch in this run (world rank of the matched/probed
  /// sender). -1 until completion is observed.
  mpism::Rank matched_src_world = -1;
  std::uint64_t matched_seq = 0;

  /// ToolCtx::call_seq when the epoch opened and when its match was
  /// bound (0 while unmatched): what cut_view (replay_context.hpp) keeps
  /// of a run stopped at a given call.
  std::uint64_t opened_at = 0;
  std::uint64_t matched_at = 0;

  /// Earliest late send per source (excluding the matched source),
  /// ascending by source — the order the explorer pushes alternatives
  /// onto its DFS stack.
  FlatMap<mpism::Rank, PotentialMatch> alternatives;
};

/// One unsafe-pattern alert (paper §V).
struct UnsafeAlert {
  int rank = -1;
  std::string detail;
  std::uint64_t raised_at = 0;  ///< ToolCtx::call_seq when raised
};

/// Everything one run left behind, flushed per rank by the DAMPI layer
/// (at finalize, or at teardown for aborted runs).
struct RunTrace {
  std::vector<EpochRecord> epochs;
  std::vector<UnsafeAlert> alerts;
  std::uint64_t wildcard_recv_epochs = 0;  ///< Table II's R* for this run
  std::uint64_t wildcard_probe_epochs = 0;
  std::uint64_t potential_matches = 0;
  std::uint64_t late_messages_seen = 0;
  std::uint64_t auto_abstracted_epochs = 0;

  /// Epochs in canonical trace order: (lc, rank, nd_index). Stable for a
  /// replayed prefix because forced matches reproduce clock propagation.
  /// Sorted once and memoized — the explorer consults the order after
  /// every run, and re-sorting an unchanged trace was pure waste. The
  /// cache is identity-keyed on the epochs buffer: copies and moves
  /// invalidate it (it never travels — the cached pointers would dangle
  /// into the source's buffer), and in-place growth of an already-sorted
  /// trace trips a DAMPI_CHECK, because mutating epochs after sorted()
  /// invalidates pointers callers may still hold. The returned vector
  /// lives until the trace is next sorted, copied into or moved.
  const std::vector<const EpochRecord*>& sorted() const;

 private:
  /// Memoized canonical order; see sorted(). Deliberately non-copying:
  /// any copy/move of the trace starts with a cold cache. A move still
  /// carries the order buffer's capacity along with the epochs, so a
  /// trace recycled across replays sorts without allocating.
  struct SortCache {
    SortCache() = default;
    SortCache(const SortCache&) {}
    SortCache(SortCache&& other) noexcept : order(std::move(other.order)) {
      reset();
      other.reset();
    }
    SortCache& operator=(const SortCache&) { return reset(); }
    SortCache& operator=(SortCache&& other) noexcept {
      if (this != &other) order.swap(other.order);
      other.reset();
      return reset();
    }
    SortCache& reset() {
      order.clear();
      data = nullptr;
      size = 0;
      valid = false;
      return *this;
    }
    std::vector<const EpochRecord*> order;
    const EpochRecord* data = nullptr;  ///< epochs.data() at sort time
    std::size_t size = 0;               ///< epochs.size() at sort time
    bool valid = false;
  };
  mutable SortCache sort_cache_;
};

/// Thread-safe sink the per-rank layers flush into: one per replay
/// context, reused across its runs. Epoch records circulate instead of
/// being reallocated — reset() adopts the buffers of a trace the last
/// run's consumer is done with, flush_rank() swaps each rank's records
/// into it (handing the rank spare records back), take() hands the
/// filled trace out.
class TraceSink {
 public:
  /// Starts a run with an empty trace built on `spare`'s storage.
  void reset(RunTrace&& spare);

  /// Appends one rank's epochs and alerts plus its counters. The
  /// records are swapped, not copied: `epochs` comes back holding spare
  /// records (stale contents, warm buffers); `alerts` comes back empty.
  void flush_rank(std::span<EpochRecord> epochs,
                  std::vector<UnsafeAlert>& alerts, std::uint64_t recv_epochs,
                  std::uint64_t probe_epochs, std::uint64_t potentials,
                  std::uint64_t lates);

  /// Take the accumulated trace (call once every rank has flushed).
  RunTrace take();

 private:
  std::mutex mu_;
  RunTrace trace_;
  std::size_t filled_ = 0;  ///< trace_.epochs[0, filled_) are this run's
};

}  // namespace dampi::core
