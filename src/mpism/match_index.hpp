// Message-matching structures for the engine: the unexpected-message
// queue and the posted-receive queue behind one interface, with two
// implementations.
//
//  - LinearMatchIndex: the original deque walk. O(queue length) per
//    lookup; kept compiled in as the differential oracle (tests select
//    it with RunOptions::match = kLinear) because its correctness is
//    self-evident.
//  - IndexedMatchIndex: per-source FIFO lanes keyed by (comm, tag,
//    src) plus (comm, src) in flat open-addressing tables, so
//    specific-receive lookup, removal by msg_id, and posted-receive
//    matching are O(1) amortized and wildcard candidates are read off
//    lane heads instead of rescanning the queue. Queued messages and
//    posted-lane entries are pooled nodes and every table keeps its
//    capacity across runs (allocation-free steady state at any depth).
//    Shallow queues (< 32 entries, separately for unexpected and posted)
//    run the linear algorithms unchanged — hashing costs more than a
//    three-entry scan — and the structure migrates to lanes permanently
//    the first time a queue crosses the threshold.
//
// Equivalence contract (what the differential fuzz asserts): both
// implementations must produce identical results for every query —
// same candidate vectors (sorted by source, earliest message per
// source), same find_specific winner, same earliest-posted receive from
// match_posted — because the engine's visible behaviour (wildcard
// nondeterminism included) is a function of exactly these answers. A
// message leaves the queue only as such an answer (take), so the
// indexed structure needs no id lookup at all.
//
// Key invariants the indexed structure leans on (engine holds one
// global mutex around all of this):
//  - Arrival order within one rank's unexpected queue == msg_id order:
//    msg_id assignment and queue insertion happen in the same critical
//    section, so a lane head's msg_id orders it against the other heads
//    (the earliest-arrival match policy compares them).
//  - Per-source lanes are FIFO ⇒ each lane head is the oldest
//    compatible message from that source ⇒ the wildcard candidate set
//    is exactly the set of lane heads (MPI non-overtaking).
//  - A posted receive is compatible with an arrival iff it lives in one
//    of four lanes — (src,tag), (src,ANY), (ANY,tag), (ANY,ANY) — so
//    the earliest-posted compatible receive is the min-post-seq head of
//    those four.
//
// All methods assume the engine mutex is held. Not thread-safe.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpism/envelope.hpp"
#include "mpism/policy.hpp"
#include "mpism/pool.hpp"
#include "mpism/request.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

enum class MatchKind { kLinear, kIndexed };

/// "linear" or "indexed", for reports and benchmark context.
const char* match_spec(MatchKind kind);

/// Queue entries examined per matcher query, counted in plain buckets
/// with the geometry of the `match.scan_length` histogram (bucket i holds
/// lengths in [2^i, 2^(i+1)), the last one is a catch-all). Counting
/// here instead of in the shared atomic histogram keeps the per-query
/// path free of atomics; MatchIndex::publish_scans moves the counts into
/// the histogram once per run.
struct ScanTally {
  static constexpr int kBuckets = 24;
  std::array<std::uint64_t, kBuckets> buckets{};

  void add(std::size_t examined);
};

/// One rank's matching state: queued unexpected messages (owned) and
/// pending posted receives (non-owning pointers into the engine's
/// request table; a record stays indexed until match_posted removes it).
class MatchIndex {
 public:
  virtual ~MatchIndex() = default;

  /// Drops every queued message and posted receive, zeroes the node
  /// pools' per-run counts and returns to the freshly constructed state,
  /// keeping allocated storage for the next run. The posted records
  /// themselves belong to the engine.
  virtual void reset() = 0;

  /// Adds this index's scan lengths to the `match.scan_length`
  /// histogram and zeroes them.
  void publish_scans();

  // --- unexpected-message queue ---------------------------------------
  virtual void push_unexpected(Envelope&& env) = 0;
  /// Earliest compatible message from a concrete source. Pointer valid
  /// until the next mutation.
  virtual const Envelope* find_specific(Rank src_world, Tag tag,
                                        CommId comm) const = 0;
  /// True iff wildcard_candidates would be non-empty (cheaper).
  virtual bool has_candidates(Tag tag, CommId comm) const = 0;
  /// Per-source earliest compatible message, sorted by source.
  /// Clears and fills `out` (caller-owned buffer, reused across calls).
  virtual void wildcard_candidates(Tag tag, CommId comm,
                                   std::vector<MatchCandidate>* out) const = 0;
  /// Removes and returns `queued`: an answer of find_specific, or a
  /// candidate's `env`, with no mutation since (checked in the linear
  /// walks; the indexed lanes take it by address).
  virtual Envelope take(const Envelope* queued) = 0;

  // --- posted-receive queue -------------------------------------------
  virtual void post_recv(RequestRecord* rec) = 0;
  /// Removes and returns the earliest-posted receive compatible with
  /// `env`, or nullptr when none is.
  virtual RequestRecord* match_posted(const Envelope& env) = 0;

  /// Queue- and posted-node pool stats, summed (zero for the linear
  /// matcher).
  virtual PoolCounts pool_stats() const = 0;

 protected:
  mutable ScanTally scans_;
};

std::unique_ptr<MatchIndex> make_match_index(MatchKind kind);

}  // namespace dampi::mpism
