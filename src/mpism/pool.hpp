// Slab / freelist pools for the engine's per-message allocations.
//
// The matching hot path creates and destroys one RequestRecord per
// request that outlives its call (request.hpp) and one queue node per
// unexpected message; at ADLB-style unexpected-queue depths that is a
// heap round trip per MPI call. SlabPool turns both into freelist pops
// after warm-up: objects are placement-constructed in cache-dense slabs
// and recycled without returning memory to the allocator until the pool
// dies. BufferPool does the same for payload byte buffers whose contents
// die inside the engine (unextracted receives) — capacity is retained
// and handed back to the next engine-internal copy.
//
// Thread safety: none. Pools are per-rank in the engine and guarded by
// that rank's lock shard (or the global engine mutex under
// EngineLockKind::kGlobal; under coop by the engine running on one
// thread), exactly like the structures they feed. Stats
// are plain integers for the same reason; the engine aggregates them
// across ranks, publishes them to the obs::Registry (`engine.pool.*`)
// once per run, and zeroes the per-run counts for the next run.
//
// A pool outlives many runs (the engine is reused across a walk's
// replays), so a stale pointer into a released slot would silently read
// the next run's object. Under AddressSanitizer, released slots and
// recycled buffer capacity are poisoned until the next acquire hands
// them out again, which turns such a read into a use-after-poison report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "mpism/types.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define DAMPI_POOL_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define DAMPI_POOL_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define DAMPI_POOL_POISON(addr, size) ((void)(addr), (void)(size))
#define DAMPI_POOL_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace dampi::mpism {

/// Allocation/reuse counters published as `engine.pool.*` metrics.
struct PoolStats {
  std::uint64_t acquired = 0;  ///< acquire() calls since reset_counts()
  std::uint64_t reused = 0;    ///< of those, served from the freelist
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
  // (the engine releases its tables at every run's reset; `live` is the
  // audit trail). Destroying with live objects skips their destructors —
  // never throw from here.
  ~SlabPool() {
    for (auto& slab : slabs_) {
      DAMPI_POOL_UNPOISON(slab.get(), per_slab_ * sizeof(Slot));
    }
  }

  template <typename... Args>
  T* acquire(Args&&... args) {
    ++stats_.acquired;
    ++stats_.live;
    Slot* slot = free_;
    if (slot != nullptr) {
      DAMPI_POOL_UNPOISON(slot, sizeof(Slot));
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
    // Default-initialized when no arguments are given: a pooled type's
    // members carry their own initializers, and value-initialization
    // would first zero-fill the whole object.
    if constexpr (sizeof...(Args) == 0) {
      return ::new (static_cast<void*>(slot->storage)) T;
    } else {
      return ::new (static_cast<void*>(slot->storage))
          T(std::forward<Args>(args)...);
    }
  }

  void release(T* obj) {
    obj->~T();
    auto* slot = std::launder(reinterpret_cast<Slot*>(obj));
    slot->next = free_;
    free_ = slot;
    DAMPI_POOL_POISON(slot, sizeof(Slot));
    DAMPI_CHECK(stats_.live > 0);
    --stats_.live;
  }

  const PoolStats& stats() const { return stats_; }

  /// Zeroes the per-run counts (acquired, reused); `slabs` and `live`
  /// describe the pool itself and carry over.
  void reset_counts() {
    stats_.acquired = 0;
    stats_.reused = 0;
  }

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

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() {
    for (Bytes& buf : free_) DAMPI_POOL_UNPOISON(buf.data(), buf.capacity());
  }

  /// An empty buffer, reusing recycled capacity when available.
  Bytes acquire() {
    ++stats_.acquired;
    if (free_.empty()) return {};
    ++stats_.reused;
    Bytes out = std::move(free_.back());
    free_.pop_back();
    DAMPI_POOL_UNPOISON(out.data(), out.capacity());
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
    buf.clear();  // keeps capacity
    DAMPI_POOL_POISON(buf.data(), buf.capacity());
    free_.push_back(std::move(buf));
  }

  struct Stats {
    std::uint64_t acquired = 0;
    std::uint64_t reused = 0;
    std::uint64_t recycled = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Zeroes the per-run counts; the recycled buffers themselves stay.
  void reset_counts() {
    stats_ = Stats{};
    start_free_ = free_.size();
  }

  /// Buffers this pool needs so the next run starts with what this run
  /// started with plus what it missed: positive after the freelist ran
  /// dry or was drawn down, negative when it holds spares.
  std::int64_t shortfall() const {
    const auto misses = static_cast<std::int64_t>(stats_.acquired) -
                        static_cast<std::int64_t>(stats_.reused);
    return static_cast<std::int64_t>(start_free_) + misses -
           static_cast<std::int64_t>(free_.size());
  }

  /// Moves one recycled buffer to `other`; false when there is none or
  /// `other` is full.
  bool give_one(BufferPool& other) {
    if (free_.empty() || other.free_.size() >= other.max_buffers_) {
      return false;
    }
    other.free_.push_back(std::move(free_.back()));
    free_.pop_back();
    return true;
  }

 private:
  std::size_t max_buffers_;
  std::size_t max_buffer_bytes_;
  std::vector<Bytes> free_;
  std::size_t start_free_ = 0;  ///< free_.size() at reset_counts()
  Stats stats_;
};

}  // namespace dampi::mpism
