#include "obs/metrics.hpp"

#include <algorithm>

#include "common/line_record.hpp"
#include "common/strutil.hpp"

namespace dampi::obs {

FixedHistogram::FixedHistogram(double first_limit, int buckets)
    : first_limit_(first_limit),
      counts_(static_cast<std::size_t>(std::max(buckets, 2))) {}

void FixedHistogram::add(double x, std::uint64_t n) {
  std::size_t i = 0;
  double limit = first_limit_;
  while (x >= limit && i + 1 < counts_.size()) {
    limit *= 2.0;
    ++i;
  }
  counts_[i].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t FixedHistogram::count() const {
  std::uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

double FixedHistogram::quantile_bound(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5);
  std::uint64_t seen = 0;
  double limit = first_limit_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= target) return limit;
    limit *= 2.0;
  }
  return limit;
}

std::string FixedHistogram::str() const {
  return strfmt("n=%llu p50<=%.1e p90<=%.1e p99<=%.1e",
                static_cast<unsigned long long>(count()), quantile_bound(0.5),
                quantile_bound(0.9), quantile_bound(0.99));
}

void FixedHistogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Entry& Registry::find_or_add(const std::string& name) {
  for (const auto& e : entries_) {
    if (e->name == name) return *e;
  }
  entries_.push_back(std::make_unique<Entry>());
  entries_.back()->name = name;
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = find_or_add(name);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = find_or_add(name);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

FixedHistogram& Registry::histogram(const std::string& name,
                                    double first_limit, int buckets) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = find_or_add(name);
  if (!e.histogram) {
    e.histogram = std::make_unique<FixedHistogram>(first_limit, buckets);
  }
  return *e.histogram;
}

std::string Registry::dump() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& e : entries_) sorted.push_back(e.get());
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* x, const Entry* y) { return x->name < y->name; });
  std::string out;
  for (const Entry* e : sorted) {
    if (e->counter) {
      out += strfmt("%s %llu\n", e->name.c_str(),
                    static_cast<unsigned long long>(e->counter->value()));
    }
    if (e->gauge) {
      out += strfmt("%s %lld (max %lld)\n", e->name.c_str(),
                    static_cast<long long>(e->gauge->value()),
                    static_cast<long long>(e->gauge->max()));
    }
    if (e->histogram) {
      out += strfmt("%s %s\n", e->name.c_str(), e->histogram->str().c_str());
    }
  }
  return out;
}

void Registry::merge_dump(const std::string& dump,
                          const std::string& prefix) {
  LineReader in(dump);
  while (in.next()) {
    // Counters only: a gauge "v (max m)" or histogram "n=... p50<=..."
    // line is not one number.
    std::uint64_t value = 0;
    if (in.keyword().empty() || !in.fields().read_exactly(&value)) continue;
    const std::string name(in.keyword());
    if (prefix.empty()) {
      counter(name).add(value);
      continue;
    }
    counter(prefix + "." + name).add(value);
    counter("dist." + name).add(value);
  }
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& e : entries_) {
    if (e->counter) e->counter->reset();
    if (e->gauge) e->gauge->reset();
    if (e->histogram) e->histogram->reset();
  }
}

}  // namespace dampi::obs
