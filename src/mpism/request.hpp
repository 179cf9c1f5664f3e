// Request records and the rank-local table that owns them.
//
// A request gets a record only when it outlives the call that made it:
// nonblocking isend/irecv/issend, a blocking ssend (it waits for its
// match), and a blocking receive whose message is not queued yet. An
// eager blocking send, and a blocking or tool receive that matches a
// queued message, complete inside their call with no record; they still
// draw an id, so tool hooks see one per operation.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "mpism/envelope.hpp"
#include "mpism/pool.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

enum class ReqKind { kSend, kRecv };

/// Engine-side state of a request that outlives its call. Owned by the
/// rank's RequestTable; user code refers to it by RequestId.
struct RequestRecord {
  RequestId id = kNullRequest;
  ReqKind kind = ReqKind::kSend;

  // As posted (receives). src is a *world* rank or kAnySource; tag may be
  // kAnyTag. The posted values reflect any tool-layer rewrites (a guided
  // replay posts the determinized source here).
  Rank posted_src_world = kAnySource;
  Tag posted_tag = kAnyTag;
  CommId comm = kCommWorld;

  /// True once matched (recv) / injected (send). Eager sends complete at
  /// creation time. Atomic because under sharded locking a synchronous
  /// send completes *cross-shard*: the receiver publishes completion
  /// through Envelope::sender_rec (store-release) without holding the
  /// sender's shard, and the sender's wake predicate load-acquires it.
  std::atomic<bool> complete{false};

  /// Matched message (receives only; valid when complete).
  Envelope msg;

  /// Issued by a tool layer; excluded from stats and leak accounting.
  bool tool_internal = false;

  /// Virtual time at which the operation completed remotely (synchronous
  /// sends: when the matching receive released it, plus the ack
  /// latency). 0 for operations that complete locally. Written before
  /// the `complete` release-store; read after its acquire-load.
  std::atomic<double> complete_vtime{0.0};
};

/// One rank's live request records, in a dense slot array. A RequestId
/// packs a rank-local generation (high bits, never 0) with a 1-based
/// slot (low kSlotBits; 0 means "no record"), and a record stores its
/// own id, so a consumed handle — or a stale one whose slot was reused —
/// misses. Freed slots are reused last-in first-out; the arrays keep
/// their capacity across runs. Guarded like the rank's pools.
class RequestTable {
 public:
  static constexpr int kSlotBits = 24;

  /// A fresh id with no record: the request completes inside its call.
  RequestId issue() { return next_gen_++ << kSlotBits; }

  /// A fresh record from `pool`, entered under a new id.
  RequestRecord& add(SlabPool<RequestRecord>& pool) {
    std::uint32_t slot;
    if (free_.empty()) {
      DAMPI_CHECK_MSG(slots_.size() < kSlotMask, "request table full");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(nullptr);
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    RequestRecord* rec = pool.acquire();
    rec->id = issue() | (slot + 1);
    slots_[slot] = rec;
    return *rec;
  }

  RequestRecord* find(RequestId id) const {
    const std::uint64_t slot = id & kSlotMask;
    if (slot == 0 || slot > slots_.size()) return nullptr;
    RequestRecord* rec = slots_[slot - 1];
    return rec != nullptr && rec->id == id ? rec : nullptr;
  }

  /// Removes the record under `id` (nullptr when there is none); the
  /// caller then owns it and returns it to the pool.
  RequestRecord* take(RequestId id) {
    RequestRecord* rec = find(id);
    if (rec != nullptr) {
      const auto slot = static_cast<std::uint32_t>((id & kSlotMask) - 1);
      slots_[slot] = nullptr;
      free_.push_back(slot);
    }
    return rec;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const RequestRecord* rec : slots_) {
      if (rec != nullptr) f(*rec);
    }
  }

  /// Releases every record to `pool` and rewinds the generations.
  void clear(SlabPool<RequestRecord>& pool) {
    for (RequestRecord* rec : slots_) {
      if (rec != nullptr) pool.release(rec);
    }
    slots_.clear();
    free_.clear();
    next_gen_ = 1;
  }

 private:
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  std::vector<RequestRecord*> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_gen_ = 1;
};

}  // namespace dampi::mpism
