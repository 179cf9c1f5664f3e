// What a blocked rank waits for: a typed wake condition.
//
// A rank that blocks in the engine records one of these; the scheduler
// evaluates it (ready()) to decide whether the rank can run again, and
// the engine's deadlock scan evaluates it to tell a stuck rank from one
// merely late to wake. A switch over four cases replaces a type-erased
// predicate: no call through a function object per evaluation, and no
// capture that must fit anyone's inline storage.
//
// Every field points at engine state that outlives the wait: request
// records are slab storage, stable until consumed (a waited-on request
// cannot be consumed while its owner is blocked); the waitany array is
// the rank's reused scratch; the match index and collective slot are
// address-stable for the run. The conditions only ever flip from false
// to true while their rank is blocked, and every such flip is followed
// by a wake() of that rank (see scheduler.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "mpism/match_index.hpp"
#include "mpism/request.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

struct WaitOn {
  enum class Kind : std::uint8_t {
    kNone,        ///< not blocked: never ready
    kRequest,     ///< `rec` has completed
    kAnyRequest,  ///< any non-null entry of recs[0, count) has completed
    kMessage,     ///< a message matching (src_world, tag, comm) is queued
    kCollective,  ///< the collective slot reached what this member needs
  };
  Kind kind = Kind::kNone;

  const RequestRecord* rec = nullptr;
  RequestRecord* const* recs = nullptr;
  std::size_t count = 0;

  const MatchIndex* match = nullptr;
  Rank src_world = kAnySource;
  Tag tag = kAnyTag;
  CommId comm = kCommWorld;

  /// kCollective: `*root_arrived` when set (a rooted fan-out's leaves),
  /// otherwise `*arrived == want` (everyone, or a fan-in's root).
  const int* arrived = nullptr;
  int want = 0;
  const bool* root_arrived = nullptr;

  bool ready() const {
    switch (kind) {
      case Kind::kNone:
        return false;
      case Kind::kRequest:
        return rec->complete.load(std::memory_order_acquire);
      case Kind::kAnyRequest:
        for (std::size_t i = 0; i < count; ++i) {
          if (recs[i] != nullptr &&
              recs[i]->complete.load(std::memory_order_acquire)) {
            return true;
          }
        }
        return false;
      case Kind::kMessage:
        return src_world == kAnySource
                   ? match->has_candidates(tag, comm)
                   : match->find_specific(src_world, tag, comm) != nullptr;
      case Kind::kCollective:
        return root_arrived != nullptr ? *root_arrived : *arrived == want;
    }
    return false;
  }
};

}  // namespace dampi::mpism
