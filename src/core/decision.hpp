// The Epoch Decisions file (paper §II-B/E): which source each guided
// epoch must match in a replay. A rank runs GUIDED until the first of its
// epochs with no decision, then reverts to SELF_RUN — the paper's
// guided_epoch frontier, expressed per key.
#pragma once

#include "common/flat_map.hpp"
#include "core/epoch.hpp"
#include "mpism/types.hpp"

namespace dampi::core {

/// Sorted flat map of epoch decisions. The map is consulted on every ND
/// event of every replay (DampiLayer::guided_source), so lookups run a
/// binary search over one contiguous allocation instead of chasing the
/// red-black-tree nodes of the std::map it replaced. Iteration order and
/// operator== match the old map exactly (key-ascending), so the decision
/// file format, checkpoint grammar, and bug keys are unchanged.
class ForcedDecisions {
 public:
  using value_type = FlatMap<EpochKey, mpism::Rank>::value_type;
  using const_iterator = FlatMap<EpochKey, mpism::Rank>::const_iterator;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  /// Drops every decision, keeping the buffer.
  void clear() { entries_.clear(); }

  const_iterator find(const EpochKey& key) const { return entries_.find(key); }
  std::size_t count(const EpochKey& key) const { return entries_.count(key); }

  /// Insert-or-assign, map-style (a new key starts as kAnySource).
  mpism::Rank& operator[](const EpochKey& key) {
    return entries_.try_emplace(key, mpism::kAnySource).first->second;
  }

  /// Insert-if-absent; returns whether the key was new.
  bool emplace(const EpochKey& key, mpism::Rank src) {
    return entries_.try_emplace(key, src).second;
  }

  friend bool operator==(const ForcedDecisions&,
                         const ForcedDecisions&) = default;

 private:
  FlatMap<EpochKey, mpism::Rank> entries_;
};

struct Schedule {
  /// epoch -> forced source (world rank).
  ForcedDecisions forced;

  bool empty() const { return forced.empty(); }

  /// Decision for this epoch, or kAnySource if none.
  mpism::Rank lookup(const EpochKey& key) const {
    auto it = forced.find(key);
    return it == forced.end() ? mpism::kAnySource : it->second;
  }
};

}  // namespace dampi::core
