#include "core/por.hpp"

#include <algorithm>

namespace dampi::core {

const char* por_spec(PorMode mode) {
  return mode == PorMode::kOff ? "off" : "sleep";
}

namespace {

bool tags_compatible(mpism::Tag a, mpism::Tag b) {
  return a == mpism::kAnyTag || b == mpism::kAnyTag || a == b;
}

/// Both inputs sorted ascending.
bool candidates_intersect(const std::vector<mpism::Rank>& a,
                          const std::vector<mpism::Rank>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

bool contains(const std::vector<mpism::Rank>& sorted, mpism::Rank value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

/// a's epoch-open event is visible to b: b's clock has caught up with
/// a's own component at the instant the epoch opened.
bool happened_before(const DecisionFootprint& a, const DecisionFootprint& b) {
  const auto idx = static_cast<std::size_t>(a.rank);
  if (idx >= a.vc.size() || idx >= b.vc.size()) return true;  // conservative
  return b.vc[idx] >= a.vc[idx];
}

}  // namespace

DecisionFootprint epoch_footprint(const EpochRecord& epoch) {
  DecisionFootprint fp;
  fp.rank = epoch.key.rank;
  fp.comm = epoch.comm;
  fp.tag = epoch.tag;
  fp.candidates.reserve(epoch.alternatives.size() + 1);
  for (const auto& [src, match] : epoch.alternatives) {
    fp.candidates.push_back(src);  // map iteration: already sorted
  }
  if (epoch.matched_src_world >= 0) {
    fp.candidates.insert(std::lower_bound(fp.candidates.begin(),
                                          fp.candidates.end(),
                                          epoch.matched_src_world),
                         epoch.matched_src_world);
  }
  fp.vc = epoch.vc;
  return fp;
}

bool independent(const DecisionFootprint& a, const DecisionFootprint& b) {
  // No vector evidence: Lamport totals order everything, so nothing is
  // provably concurrent. Prune nothing.
  if (a.vc.empty() || b.vc.empty()) return false;
  if (a.rank == b.rank) return false;
  // Contested sender: a source both decisions can bind on a compatible
  // channel — flipping one decision steals (or frees) the other's
  // message, the textbook dependency.
  if (a.comm == b.comm && tags_compatible(a.tag, b.tag) &&
      candidates_intersect(a.candidates, b.candidates)) {
    return false;
  }
  // Receiver involvement: one decision may bind a send from the other's
  // receiver rank, so the other's outcome (what that rank does next) can
  // feed back into this one. Conservative — comm/tag are ignored here
  // because the feedback travels through program control flow, not a
  // message channel.
  if (contains(a.candidates, b.rank) || contains(b.candidates, a.rank)) {
    return false;
  }
  // Causally ordered epochs never commute: the earlier decision's
  // outcome is already in the later epoch's past.
  if (happened_before(a, b) || happened_before(b, a)) return false;
  return true;
}

}  // namespace dampi::core
