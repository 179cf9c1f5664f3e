// Vector clocks: the precise (but per-message O(N)) causality tracker.
//
// DAMPI normally runs on Lamport clocks for scalability; vector-clock mode
// exists to (a) quantify what coverage the scalar approximation loses
// (the paper's Fig. 4 "cross-coupled" pattern) and (b) serve as the
// completeness oracle in tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace dampi::clocks {

/// Outcome of comparing two vector timestamps.
enum class Ordering {
  kEqual,       ///< identical vectors
  kBefore,      ///< lhs happened-before rhs
  kAfter,       ///< rhs happened-before lhs
  kConcurrent,  ///< incomparable — concurrent events
};

/// N-entry vector clock for a fixed-size process group.
class VectorClock {
 public:
  using Value = std::uint64_t;

  VectorClock() = default;
  /// Zero clock for `size` processes, owned by process `owner`.
  VectorClock(int size, int owner);

  int size() const { return static_cast<int>(v_.size()); }
  int owner() const { return owner_; }
  Value component(int i) const { return v_[static_cast<std::size_t>(i)]; }
  Value own() const { return v_[static_cast<std::size_t>(owner_)]; }

  /// Local event at the owning process.
  void tick();

  /// Back to the zero clock (same size and owner).
  void reset() { std::fill(v_.begin(), v_.end(), Value{0}); }

  /// Component-wise max with a remote timestamp (message receipt).
  void merge(const VectorClock& remote);
  void merge(const std::vector<Value>& remote);

  /// Snapshot suitable for piggybacking.
  const std::vector<Value>& components() const { return v_; }

  /// Partial-order comparison of two timestamps (need not share owners).
  static Ordering compare(const VectorClock& a, const VectorClock& b);
  static Ordering compare(const std::vector<Value>& a,
                          const std::vector<Value>& b);

  /// True iff `a` is causally before or concurrent with `b` — the "not
  /// causally after" test DAMPI applies to classify a send as late.
  static bool not_after(const std::vector<Value>& a,
                        const std::vector<Value>& b);

  std::string str() const;

 private:
  std::vector<Value> v_;
  int owner_ = 0;
};

}  // namespace dampi::clocks
