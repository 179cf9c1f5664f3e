#include "core/epoch.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dampi::core {

const std::vector<const EpochRecord*>& RunTrace::sorted() const {
  if (sort_cache_.valid) {
    // Same buffer grown or shrunk in place means someone mutated epochs
    // after sorting — the cached pointers (and any the caller kept from
    // an earlier sorted() call) may already dangle past a reallocation.
    DAMPI_CHECK_MSG(sort_cache_.data != epochs.data() ||
                        sort_cache_.size == epochs.size(),
                    "RunTrace::epochs mutated after sorted()");
    if (sort_cache_.data == epochs.data() &&
        sort_cache_.size == epochs.size()) {
      return sort_cache_.order;
    }
    sort_cache_.reset();
  }
  std::vector<const EpochRecord*>& out = sort_cache_.order;
  out.clear();
  for (const EpochRecord& e : epochs) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const EpochRecord* a, const EpochRecord* b) {
              if (a->lc != b->lc) return a->lc < b->lc;
              return a->key < b->key;
            });
  sort_cache_.data = epochs.data();
  sort_cache_.size = epochs.size();
  sort_cache_.valid = true;
  return out;
}

void TraceSink::reset(RunTrace&& spare) {
  std::lock_guard<std::mutex> lock(mu_);
  trace_ = std::move(spare);
  trace_.alerts.clear();
  trace_.wildcard_recv_epochs = 0;
  trace_.wildcard_probe_epochs = 0;
  trace_.potential_matches = 0;
  trace_.late_messages_seen = 0;
  trace_.auto_abstracted_epochs = 0;
  filled_ = 0;
}

void TraceSink::flush_rank(std::span<EpochRecord> epochs,
                           std::vector<UnsafeAlert>& alerts,
                           std::uint64_t recv_epochs,
                           std::uint64_t probe_epochs,
                           std::uint64_t potentials, std::uint64_t lates) {
  std::lock_guard<std::mutex> lock(mu_);
  for (EpochRecord& e : epochs) {
    if (e.auto_abstracted) ++trace_.auto_abstracted_epochs;
    if (filled_ == trace_.epochs.size()) trace_.epochs.emplace_back();
    std::swap(trace_.epochs[filled_++], e);
  }
  for (auto& a : alerts) trace_.alerts.push_back(std::move(a));
  alerts.clear();
  trace_.wildcard_recv_epochs += recv_epochs;
  trace_.wildcard_probe_epochs += probe_epochs;
  trace_.potential_matches += potentials;
  trace_.late_messages_seen += lates;
}

RunTrace TraceSink::take() {
  std::lock_guard<std::mutex> lock(mu_);
  // Spare records beyond this run's epochs go; the rest leave with the
  // trace and come back through reset().
  trace_.epochs.resize(filled_);
  filled_ = 0;
  return std::move(trace_);
}

}  // namespace dampi::core
