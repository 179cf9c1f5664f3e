// Per-run MPI operation statistics, categorized as in the paper's Table I:
// Send-Recv (all point-to-point), Collective, Wait (all wait/test
// variants). Local-only operations the paper excludes from its log are
// counted under kOther and not reported in Table I rows.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mpism/types.hpp"

namespace dampi::mpism {

struct OpStats {
  static constexpr std::size_t kNumCategories = 4;

  /// counts[category][rank]
  std::array<std::vector<std::uint64_t>, kNumCategories> counts;
  /// Tool messages, total: piggybacked clocks charged as messages of
  /// their own (SendCall::carry_charged).
  std::uint64_t tool_messages = 0;

  void init(int nprocs) {
    for (auto& c : counts) c.assign(static_cast<std::size_t>(nprocs), 0);
    tool_messages = 0;
  }

  void bump(OpCategory cat, Rank rank) {
    counts[static_cast<std::size_t>(cat)][static_cast<std::size_t>(rank)]++;
  }

  std::uint64_t total(OpCategory cat) const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts[static_cast<std::size_t>(cat)]) sum += c;
    return sum;
  }

  /// Total across the Table I categories (Send-Recv + Collective + Wait).
  std::uint64_t total_reported() const {
    return total(OpCategory::kSendRecv) + total(OpCategory::kCollective) +
           total(OpCategory::kWait);
  }

  std::uint64_t per_proc(OpCategory cat) const {
    const auto n = counts[0].size();
    return n == 0 ? 0 : total(cat) / n;
  }
};

}  // namespace dampi::mpism
