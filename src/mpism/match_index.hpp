// Message-matching structures for the engine: the unexpected-message
// queue and the posted-receive queue behind one interface, with two
// implementations.
//
//  - LinearMatchIndex: the original deque walk. O(queue length) per
//    lookup; kept compiled in as the differential oracle (tests select
//    it with RunOptions::match = kLinear) because its correctness is
//    self-evident.
//  - IndexedMatchIndex: per-source FIFO lanes hashed by (comm, tag,
//    src) plus (comm, src), so specific-receive lookup, removal by
//    msg_id, and posted-receive matching are O(1) amortized and
//    wildcard candidates are read off precomputed lane heads instead of
//    rescanning the queue. Lane nodes come from a slab pool
//    (allocation-free steady state). Shallow queues (< 32 entries,
//    separately for unexpected and posted) run the linear algorithms
//    unchanged — hashing costs more than a three-entry scan — and the
//    structure migrates to lanes permanently the first time a queue
//    crosses the threshold.
//
// Equivalence contract (what the differential fuzz asserts): both
// implementations must produce identical results for every query —
// same candidate vectors (sorted by source, earliest message per
// source), same find_specific winner, same earliest-posted receive from
// match_posted — because the engine's visible behaviour (wildcard
// nondeterminism included) is a function of exactly these answers.
//
// Key invariants the indexed structure leans on (engine holds one
// global mutex around all of this):
//  - Arrival order within one rank's unexpected queue == msg_id order:
//    msg_id assignment and queue insertion happen in the same critical
//    section, so lane heads can be compared by msg_id to find the
//    queue-order-earliest message.
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

/// One rank's matching state: queued unexpected messages (owned) and
/// pending posted receives (non-owning pointers into the engine's
/// request table; a record stays indexed until match_posted removes it).
class MatchIndex {
 public:
  virtual ~MatchIndex() = default;

  // --- unexpected-message queue ---------------------------------------
  virtual void push_unexpected(Envelope&& env) = 0;
  /// Earliest compatible message from a concrete source (tool traffic
  /// included). Pointer valid until the next mutation.
  virtual const Envelope* find_specific(Rank src_world, Tag tag,
                                        CommId comm) const = 0;
  /// The queued message with this id, or nullptr.
  virtual const Envelope* find_by_id(std::uint64_t msg_id) const = 0;
  /// True iff wildcard_candidates would be non-empty (cheaper).
  virtual bool has_candidates(Tag tag, CommId comm) const = 0;
  /// Per-source earliest compatible *user* message, sorted by source.
  /// Clears and fills `out` (caller-owned buffer, reused across calls).
  virtual void wildcard_candidates(Tag tag, CommId comm,
                                   std::vector<MatchCandidate>* out) const = 0;
  /// Removes and returns the message with this id (checks it exists).
  virtual Envelope take(std::uint64_t msg_id) = 0;

  // --- posted-receive queue -------------------------------------------
  virtual void post_recv(RequestRecord* rec) = 0;
  /// Removes and returns the earliest-posted receive compatible with
  /// `env`, or nullptr when none is.
  virtual RequestRecord* match_posted(const Envelope& env) = 0;

  /// Lane-node pool stats (zero for the linear matcher).
  virtual PoolStats pool_stats() const = 0;
};

std::unique_ptr<MatchIndex> make_match_index(MatchKind kind);

}  // namespace dampi::mpism
