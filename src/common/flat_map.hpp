// Flat containers for per-operation tables that live across many runs.
//
// The verifier's hot tables (per-channel send counters, a DAMPI layer's
// wildcard requests, an epoch's potential matches) are tiny, churn
// constantly, and — once a replay context keeps them alive across a
// walk — are cleared thousands of times. Node-based std::map /
// std::unordered_map pay one heap allocation per insert and free it
// again on erase or clear; these keep one contiguous buffer whose
// capacity survives clear(), so a warm table never touches the
// allocator.
//
//  - FlatMap: a sorted vector of (key, value) pairs. Iteration is
//    key-ascending exactly like std::map (callers rely on that order),
//    lookups are binary searches, inserts shift the tail. Meant for small
//    maps (tens of entries).
//  - HashTable: open addressing with linear probing and backward-shift
//    deletion (no tombstones), over any small key type whose Traits name
//    a hash and one reserved "free" key value. Iteration order is
//    unspecified. Meant for tables of any size.
//  - IdMap: a HashTable over 64-bit ids.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace dampi {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  /// Drops every entry, keeping the buffer.
  void clear() { entries_.clear(); }
  /// Drops the entries `pred` holds for, keeping the others' order.
  template <class Pred>
  void erase_if(Pred pred) {
    std::erase_if(entries_, pred);
  }

  iterator find(const K& key) {
    auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    auto it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  std::size_t count(const K& key) const { return find(key) == end() ? 0 : 1; }

  const V& at(const K& key) const {
    auto it = find(key);
    DAMPI_CHECK_MSG(it != end(), "FlatMap::at: no such key");
    return it->second;
  }

  /// map::try_emplace: inserts (key, V(args...)) when the key is absent.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    it = entries_.emplace(it, std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

 private:
  iterator lower_bound(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;  ///< sorted by key, unique
};

template <typename K, typename V, typename Traits>
class HashTable {
 public:
  /// The one key value the table cannot hold (marks a free slot).
  static constexpr K kFree = Traits::kFree;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Drops every entry, keeping the slot array.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  V* find(const K& key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kFree) return nullptr;
    }
  }
  const V* find(const K& key) const {
    return const_cast<HashTable*>(this)->find(key);
  }

  /// The value under `key`, default-constructed on first use.
  V& operator[](const K& key) {
    DAMPI_CHECK(!(key == kFree));
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; !(slots_[i].key == kFree); i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

  /// Removes `key`, moving its value to `*out` when given. Returns false
  /// when the key was absent.
  bool erase(const K& key, V* out = nullptr) {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    for (; !(slots_[i].key == key); i = (i + 1) & mask_) {
      if (slots_[i].key == kFree) return false;
    }
    if (out != nullptr) *out = std::move(slots_[i].value);
    // Backward-shift deletion: pull later members of the probe run into
    // the hole whenever their home position does not lie between the
    // hole and their current slot, so lookups never need tombstones.
    for (std::size_t j = (i + 1) & mask_; !(slots_[j].key == kFree);
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
      if (stays) continue;
      slots_[i] = std::move(slots_[j]);
      i = j;
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

  /// Calls f(key, value) for every entry, in unspecified order.
  template <typename F>
  void for_each(F&& f) const {
    if (size_ == 0) return;
    for (const Slot& s : slots_) {
      if (!(s.key == kFree)) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    K key = kFree;
    V value{};
  };

  std::size_t home(const K& key) const {
    return static_cast<std::size_t>(Traits::hash(key) >> 32) & mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (!(s.key == kFree)) (*this)[s.key] = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

struct IdKeyTraits {
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  static std::uint64_t hash(std::uint64_t key) {
    return key * 0x9E3779B97F4A7C15ull;
  }
};

template <typename V>
using IdMap = HashTable<std::uint64_t, V, IdKeyTraits>;

}  // namespace dampi
