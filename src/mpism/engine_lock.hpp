// Engine locking strategies: one global mutex vs. destination-rank shards.
//
// The engine's shared state decomposes almost perfectly by destination
// rank: the match index, unexpected/posted queues, request table, pools,
// and block/wake bookkeeping of rank r are only ever touched by code that
// is operating *on* rank r (its own thread, or a sender delivering into
// r's queues). Sharding the engine mutex by rank therefore lets a send
// from 0→1 proceed concurrently with a wait on rank 2 — the old global
// mutex serialized them. Cross-cutting state (verdict flags, budgets,
// msg-id assignment, virtual clocks) moves to atomics; the few genuinely
// global operations (collectives, communicator create/free, the
// count-based deadlock scan) briefly take *all* shards in ascending rank
// order.
//
// Lock-ordering rule (deadlock freedom): shard mutexes are only ever
// acquired in ascending rank index. A guard holding shard a that needs
// shard b < a releases everything and reacquires {b, a} in order
// (EngineGuard::add reports this drop so callers can re-validate
// references). Below the shards sit only leaf mutexes — the engine's
// verdict mutex, the policy RNG mutex, and the scheduler's per-rank
// waiter mutexes — none of which are ever held while taking a shard.
//
// kGlobal degenerates every guard form to the single mutex, preserving
// the pre-shard engine behaviour as a compiled-in differential baseline
// that tests select through RunOptions::engine_lock (mirroring the
// MatchKind::kLinear matcher oracle).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/check.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

enum class EngineLockKind {
  kGlobal,   ///< One mutex guards all engine state (pre-shard baseline).
  kSharded,  ///< Per-destination-rank shard mutexes + atomics.
};

class EngineLock {
 public:
  EngineLock(EngineLockKind kind, int nprocs)
      : kind_(kind),
        nshards_(kind == EngineLockKind::kGlobal ? 1 : nprocs) {
    DAMPI_CHECK(nprocs > 0);
    shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(nshards_));
  }

  EngineLockKind kind() const { return kind_; }
  int shards() const { return nshards_; }

  /// Contention counters, accumulated relaxed on the hot path and
  /// published to obs once per run (engine.lock.*).
  struct Stats {
    std::uint64_t acquires = 0;    ///< Shard-mutex lock operations.
    std::uint64_t contended = 0;   ///< ... that failed the try_lock fast path.
    std::uint64_t all_shards = 0;  ///< All-shards (global section) entries.
  };

  Stats stats() const {
    Stats s;
    s.acquires = acquires_.load(std::memory_order_relaxed);
    s.contended = contended_.load(std::memory_order_relaxed);
    s.all_shards = all_shards_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class EngineGuard;

  // Cacheline-separated so two ranks hammering adjacent shards do not
  // false-share the mutex words.
  struct alignas(64) Shard {
    std::mutex mu;
  };

  int shard_of(Rank r) const {
    return kind_ == EngineLockKind::kGlobal ? 0 : r;
  }

  void lock_shard(int i) {
    std::mutex& m = shards_[static_cast<std::size_t>(i)].mu;
    acquires_.fetch_add(1, std::memory_order_relaxed);
    if (m.try_lock()) return;
    contended_.fetch_add(1, std::memory_order_relaxed);
    m.lock();
  }

  void unlock_shard(int i) { shards_[static_cast<std::size_t>(i)].mu.unlock(); }

  EngineLockKind kind_;
  int nshards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> acquires_{0};
  std::atomic<std::uint64_t> contended_{0};
  std::atomic<std::uint64_t> all_shards_{0};
};

/// RAII ownership of one shard, a (sorted) shard pair, or all shards.
/// unlock()/lock() release and reacquire the whole held set — that is
/// what the scheduler's block/yield paths use to park a rank — always in
/// ascending order.
class EngineGuard {
 public:
  struct AllShardsTag {};
  static constexpr AllShardsTag kAllShards{};

  /// Acquires the shard owning rank r (global mode: the one mutex).
  EngineGuard(EngineLock& l, Rank r) : l_(&l), a_(l.shard_of(r)) {
    l_->lock_shard(a_);
    owned_ = true;
  }

  /// Acquires every shard in ascending order (a global engine section).
  EngineGuard(EngineLock& l, AllShardsTag) : l_(&l), all_(true) {
    l_->all_shards_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < l_->nshards_; ++i) l_->lock_shard(i);
    owned_ = true;
  }

  EngineGuard(const EngineGuard&) = delete;
  EngineGuard& operator=(const EngineGuard&) = delete;

  ~EngineGuard() {
    if (owned_) unlock();
  }

  /// Extends the guard to also cover rank r's shard. Returns false iff
  /// the held set had to be dropped and reacquired to respect ascending
  /// order — after a false return, any references resolved under the old
  /// critical section must be re-validated by the caller.
  bool add(Rank r) {
    DAMPI_CHECK(owned_);
    if (all_) return true;
    const int s = l_->shard_of(r);
    if (s == a_ || s == b_) return true;
    if (s > (b_ >= 0 ? b_ : a_)) {  // Still ascending: take it directly.
      DAMPI_CHECK_MSG(b_ < 0, "EngineGuard holds at most two shards");
      l_->lock_shard(s);
      b_ = s;
      return true;
    }
    // Out of order: drop everything, reacquire the sorted pair.
    DAMPI_CHECK_MSG(b_ < 0, "EngineGuard holds at most two shards");
    l_->unlock_shard(a_);
    const int lo = s < a_ ? s : a_;
    const int hi = s < a_ ? a_ : s;
    l_->lock_shard(lo);
    l_->lock_shard(hi);
    a_ = lo;
    b_ = hi;
    return false;
  }

  /// Releases the entire held set (for parking in the scheduler, or for
  /// running tool hooks outside the engine's critical section).
  void unlock() {
    DAMPI_CHECK(owned_);
    if (all_) {
      for (int i = l_->nshards_ - 1; i >= 0; --i) l_->unlock_shard(i);
    } else {
      if (b_ >= 0) l_->unlock_shard(b_);
      l_->unlock_shard(a_);
    }
    owned_ = false;
  }

  /// Reacquires the same set, ascending.
  void lock() {
    DAMPI_CHECK(!owned_);
    if (all_) {
      for (int i = 0; i < l_->nshards_; ++i) l_->lock_shard(i);
    } else {
      l_->lock_shard(a_);
      if (b_ >= 0) l_->lock_shard(b_);
    }
    owned_ = true;
  }

  bool owns() const { return owned_; }
  /// True when this guard covers every shard (a global section).
  bool all() const { return all_ || l_->nshards_ == 1; }

 private:
  EngineLock* l_;
  bool all_ = false;
  bool owned_ = false;
  int a_ = -1;  ///< First held shard index.
  int b_ = -1;  ///< Second held shard index (pair guards only), > a_.
};

/// "global" or "sharded", for reports and benchmark context.
std::string engine_lock_spec(EngineLockKind kind);

}  // namespace dampi::mpism
