// Process-wide metrics registry: named counters, gauges, and
// fixed-bucket histograms with atomic update paths.
//
// Naming convention: dotted lowercase `<subsystem>.<metric>` —
// e.g. `engine.deadlocks`, `layer.epochs_recv`.
// Instruments are created on first lookup and live for the process;
// references returned by the registry are stable, so hot paths resolve
// a name once (at construction) and update through the reference.
// Unlike the per-explore ExploreResult counters, the registry
// accumulates across runs — reset() zeroes it between experiments.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dampi::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins level, plus a high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Power-of-two bucketed histogram over positive samples, updatable
/// concurrently: bucket i covers [first_limit * 2^(i-1),
/// first_limit * 2^i), the last bucket is a catch-all.
class FixedHistogram {
 public:
  FixedHistogram(double first_limit, int buckets);

  /// Records `n` samples of value `x`.
  void add(double x, std::uint64_t n = 1);
  std::uint64_t count() const;
  /// Smallest bucket upper bound covering fraction `q` of samples.
  double quantile_bound(double q) const;
  /// "n=37 p50<=2.0e-03 p90<=8.0e-03 p99<=1.6e-02"
  std::string str() const;
  void reset();

 private:
  double first_limit_;
  std::vector<std::atomic<std::uint64_t>> counts_;
};

/// Singleton name -> instrument table.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  FixedHistogram& histogram(const std::string& name, double first_limit = 1e-6,
                            int buckets = 32);

  /// Plain-text dump, one `name value` line per instrument, sorted by
  /// name — the format appended to verifier reports.
  std::string dump() const;

  /// Zero every instrument (references stay valid).
  void reset();

  /// Import another process's dump() into this registry: every counter
  /// line (`name value`) is added both under `<prefix>.<name>` — the
  /// per-worker namespace, so concurrent workers' counters never
  /// collide — and into a `dist.<name>` campaign aggregate. Gauge and
  /// histogram lines are not single integers and are skipped.
  void merge_dump(const std::string& dump, const std::string& prefix);

 private:
  Registry() = default;

  struct Entry {
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<FixedHistogram> histogram;
  };

  Entry& find_or_add(const std::string& name);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace dampi::obs
