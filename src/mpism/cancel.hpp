// External cancellation for in-flight runs.
//
// A CancelSource is a thread-safe, shareable token: anything holding a
// reference may request cancellation once (SIGINT bridge, the explorer's
// global wall-budget watchdog, a test); every Engine whose RunOptions
// carry the token subscribes for its lifetime and aborts its current (or
// next) run when the token fires. One token may span many concurrent runs —
// the fault sweep chains every plan campaign's source to its own, so a
// single cancel() stops the whole sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace dampi::mpism {

class CancelSource {
 public:
  /// Requests cancellation. Idempotent — the first call wins and its
  /// reason sticks; later calls are no-ops. Subscribers registered at
  /// fire time are invoked (under the source's lock, so a subscriber
  /// must not call back into this source).
  void cancel(std::string reason) {
    std::lock_guard<std::mutex> lk(mu_);
    if (fired_) {
      return;
    }
    fired_ = true;
    reason_ = std::move(reason);
    requested_.store(true, std::memory_order_release);
    for (const auto& [id, fn] : subscribers_) {
      fn(reason_);
    }
  }

  /// Lock-free fast path for polling call sites.
  bool requested() const { return requested_.load(std::memory_order_acquire); }

  std::string reason() const {
    std::lock_guard<std::mutex> lk(mu_);
    return reason_;
  }

  /// Registers a callback invoked with the cancel reason when the
  /// source fires; if it already fired, the callback runs immediately
  /// (on the calling thread) and is not retained. The callback must not
  /// call back into this source. Returns a token for unsubscribe().
  std::uint64_t subscribe(std::function<void(const std::string&)> fn) {
    std::unique_lock<std::mutex> lk(mu_);
    const std::uint64_t id = next_id_++;
    if (fired_) {
      std::function<void(const std::string&)> run_now = std::move(fn);
      const std::string reason = reason_;
      lk.unlock();
      run_now(reason);
      return id;
    }
    subscribers_.emplace(id, std::move(fn));
    return id;
  }

  /// After this returns, the callback is not running and never will
  /// again (a concurrently firing cancel() finishes its callbacks before
  /// this acquires the lock) — safe to destroy the callback's targets.
  void unsubscribe(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(mu_);
    subscribers_.erase(id);
  }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> requested_{false};
  bool fired_ = false;
  std::string reason_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::function<void(const std::string&)>> subscribers_;
};

}  // namespace dampi::mpism
