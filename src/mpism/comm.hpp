// Communicator table: groups, translation between communicator-relative
// and world ranks, and leak accounting (paper Table II, C-Leak column).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mpism/types.hpp"

namespace dampi::mpism {

/// One communicator: an ordered group of world ranks. The rank of a
/// process within the communicator is its index in `members`.
struct CommRecord {
  CommId id = kCommNull;
  std::vector<Rank> members;  ///< world ranks, comm rank = index
  bool freed = false;
  /// Created by a tool layer (shadow piggyback communicators); excluded
  /// from leak accounting and user-visible statistics.
  bool tool_internal = false;
  /// World-rank -> comm-rank reverse map (kAnySource for non-members).
  std::vector<Rank> world_to_comm;

  int size() const { return static_cast<int>(members.size()); }
  bool contains_world(Rank world) const {
    return world >= 0 && world < static_cast<Rank>(world_to_comm.size()) &&
           world_to_comm[static_cast<std::size_t>(world)] != kAnySource;
  }
};

/// Owns all communicators of one run. Not thread-safe by itself; the
/// engine serializes access under its global mutex.
///
/// Records are address-stable for the whole run (a rank may hold a
/// reference across a blocking collective while others create
/// communicators) and are recycled, not freed, by init(): the next run's
/// communicators reuse their member vectors.
class CommTable {
 public:
  /// Sets up kCommWorld over `nprocs` ranks, dropping every other
  /// communicator.
  void init(int nprocs);

  const CommRecord& get(CommId id) const {
    if (!valid(id)) invalid_comm(id);
    return *comms_[static_cast<std::size_t>(id)];
  }
  bool valid(CommId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < count_ &&
           !comms_[static_cast<std::size_t>(id)]->freed;
  }

  /// New communicator with the given member list (world ranks).
  CommId create(std::span<const Rank> members, bool tool_internal);

  void free(CommId id);

  /// Reclassify a communicator as tool-internal (shadow piggyback comms
  /// are created through the ordinary collective path, then flagged).
  void mark_tool_internal(CommId id);

  /// comm-relative -> world. `rel` may be kAnySource (passed through).
  Rank to_world(CommId id, Rank rel) const {
    if (rel == kAnySource) return kAnySource;
    const CommRecord& rec = get(id);
    if (rel < 0 || rel >= rec.size()) rank_out_of_range(id, rel);
    return rec.members[static_cast<std::size_t>(rel)];
  }
  /// world -> comm-relative (kAnySource if not a member).
  Rank to_rel(CommId id, Rank world) const {
    if (world == kAnySource) return kAnySource;
    const CommRecord& rec = get(id);
    if (world < 0 || world >= world_size_) rank_out_of_range(id, world);
    return rec.world_to_comm[static_cast<std::size_t>(world)];
  }

  /// Number of user communicators created and not freed (excludes world
  /// and tool-internal ones) — the C-Leak count.
  int leaked_user_comms() const;

  int count() const { return static_cast<int>(count_); }

 private:
  /// The checked failures of the queries above, kept out of line.
  [[noreturn, gnu::cold]] static void invalid_comm(CommId id);
  [[noreturn, gnu::cold]] static void rank_out_of_range(CommId id, Rank rank);

  /// comms_[0, count_) are this run's communicators; the rest are spare
  /// records kept for their capacity.
  std::vector<std::unique_ptr<CommRecord>> comms_;
  std::size_t count_ = 0;
  int world_size_ = 0;
};

}  // namespace dampi::mpism
