// Slab / freelist pools for the engine's per-message allocations.
//
// The matching hot path creates and destroys one RequestRecord per
// nonblocking operation and one queue node per unexpected message; at
// ADLB-style unexpected-queue depths that is a heap round trip per MPI
// call. SlabPool turns both into freelist pops after warm-up: objects
// are placement-constructed in cache-dense slabs and recycled without
// returning memory to the allocator until the pool dies. BufferPool
// does the same for payload byte buffers whose contents die inside the
// engine (unextracted receives) — capacity is retained and handed back
// to the next engine-internal copy.
//
// Thread safety: none. Pools are per-rank in the engine and guarded by
// that rank's lock shard (or the global engine mutex under
// EngineLockKind::kGlobal), exactly like the structures they feed. Stats
// are plain integers for the same reason; the engine aggregates them
// across ranks and publishes to the obs::Registry (`engine.pool.*`) once
// per run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

/// Allocation/reuse counters published as `engine.pool.*` metrics.
struct PoolStats {
  std::uint64_t acquired = 0;  ///< total acquire() calls
  std::uint64_t reused = 0;    ///< acquires served from the freelist
  std::uint64_t slabs = 0;     ///< slab allocations (the only mallocs)
  std::uint64_t live = 0;      ///< objects currently checked out
};

/// Fixed-type object pool: acquire() placement-constructs into a slab
/// slot (freelist first), release() destroys and recycles the slot.
/// Slabs are only freed on destruction, so steady-state acquire/release
/// cycles perform no allocation at all.
template <typename T>
class SlabPool {
 public:
  explicit SlabPool(std::size_t objects_per_slab = 64)
      : per_slab_(objects_per_slab == 0 ? 1 : objects_per_slab) {}

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  // Owners must release everything they acquired before the pool dies
  // (the engine tears its tables down before the pools; `live` in the
  // published stats is the audit trail). Destroying with live objects
  // skips their destructors — never throw from here.
  ~SlabPool() = default;

  template <typename... Args>
  T* acquire(Args&&... args) {
    ++stats_.acquired;
    ++stats_.live;
    Slot* slot = free_;
    if (slot != nullptr) {
      free_ = slot->next;
      ++stats_.reused;
    } else {
      if (next_in_slab_ == per_slab_ || slabs_.empty()) {
        slabs_.push_back(std::make_unique<Slot[]>(per_slab_));
        next_in_slab_ = 0;
        ++stats_.slabs;
      }
      slot = &slabs_.back()[next_in_slab_++];
    }
    return ::new (static_cast<void*>(slot->storage))
        T(std::forward<Args>(args)...);
  }

  void release(T* obj) {
    obj->~T();
    auto* slot = std::launder(reinterpret_cast<Slot*>(obj));
    slot->next = free_;
    free_ = slot;
    DAMPI_CHECK(stats_.live > 0);
    --stats_.live;
  }

  const PoolStats& stats() const { return stats_; }

 private:
  union Slot {
    Slot() {}
    ~Slot() {}
    Slot* next;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  std::size_t per_slab_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::size_t next_in_slab_ = 0;
  Slot* free_ = nullptr;
  PoolStats stats_;
};

/// Deleter returning the object to its SlabPool; with it, pooled objects
/// flow through the same unique_ptr-shaped ownership the engine used for
/// heap-allocated records (extract-during-hooks stays exception safe).
template <typename T>
class PoolDeleter {
 public:
  PoolDeleter() = default;
  explicit PoolDeleter(SlabPool<T>* pool) : pool_(pool) {}
  void operator()(T* obj) const {
    DAMPI_CHECK(pool_ != nullptr);
    pool_->release(obj);
  }

 private:
  SlabPool<T>* pool_ = nullptr;
};

template <typename T>
using PoolPtr = std::unique_ptr<T, PoolDeleter<T>>;

/// Freelist of payload buffers. recycle() keeps a dropped buffer's
/// capacity; acquire() hands it back cleared, so repeated
/// engine-internal copies (collective fan-out, reduce scratch) stop
/// allocating once the high-water capacity is reached.
class BufferPool {
 public:
  explicit BufferPool(std::size_t max_buffers = 256,
                      std::size_t max_buffer_bytes = 1 << 20)
      : max_buffers_(max_buffers), max_buffer_bytes_(max_buffer_bytes) {}

  /// An empty buffer, reusing recycled capacity when available.
  Bytes acquire() {
    ++stats_.acquired;
    if (free_.empty()) return {};
    ++stats_.reused;
    Bytes out = std::move(free_.back());
    free_.pop_back();
    out.clear();  // keeps capacity
    return out;
  }

  /// Copy `src` into a (possibly recycled) buffer.
  Bytes copy_of(const Bytes& src) {
    Bytes out = acquire();
    out.assign(src.begin(), src.end());
    return out;
  }

  /// Copy a raw byte range (e.g. a Payload's inline store) into a
  /// (possibly recycled) buffer.
  Bytes copy_of(const std::byte* src, std::size_t n) {
    Bytes out = acquire();
    out.assign(src, src + n);
    return out;
  }

  /// Donate a dead buffer's capacity. Oversized or surplus buffers are
  /// simply dropped (bounded memory).
  void recycle(Bytes&& buf) {
    if (buf.capacity() == 0 || buf.capacity() > max_buffer_bytes_ ||
        free_.size() >= max_buffers_) {
      return;
    }
    ++stats_.recycled;
    free_.push_back(std::move(buf));
    free_.back().clear();
  }

  struct Stats {
    std::uint64_t acquired = 0;
    std::uint64_t reused = 0;
    std::uint64_t recycled = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  std::size_t max_buffers_;
  std::size_t max_buffer_bytes_;
  std::vector<Bytes> free_;
  Stats stats_;
};

}  // namespace dampi::mpism
