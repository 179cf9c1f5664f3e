// Unit tests for the common utilities and the substrate's small pieces:
// formatting, statistics, RNG determinism, cost model, op stats, epoch
// trace ordering, and schedules.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strutil.hpp"
#include "core/decision.hpp"
#include "core/epoch.hpp"
#include "mpism/cost_model.hpp"
#include "mpism/op_stats.hpp"

namespace dampi {
namespace {

TEST(Strutil, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("rank %d: %s", 3, "ok"), "rank 3: ok");
  EXPECT_EQ(strfmt("%05.1f", 2.25), "002.2");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(Strutil, FixedDecimals) {
  EXPECT_EQ(fmt_fixed(1.1834, 2), "1.18");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
}

TEST(Stats, HumanCountMatchesPaperStyle) {
  EXPECT_EQ(human_count(999), "999");
  EXPECT_EQ(human_count(9999), "9999");
  EXPECT_EQ(human_count(10'000), "10K");
  EXPECT_EQ(human_count(187'000), "187K");
  EXPECT_EQ(human_count(7'986'400), "7986K");
  EXPECT_EQ(human_count(23'500), "24K");  // rounds
}

TEST(Stats, TextTableAlignsColumns) {
  TextTable t;
  t.header({"a", "long-header"});
  t.row({"xxxx", "1"});
  const std::string out = t.str();
  EXPECT_NE(out.find("a     long-header"), std::string::npos);
  EXPECT_NE(out.find("xxxx  1"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng base(100);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Check, ThrowsInternalErrorWithLocation) {
  try {
    DAMPI_CHECK_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(CostModel, TransitScalesWithBytes) {
  mpism::CostModel cost;
  EXPECT_DOUBLE_EQ(cost.message_transit_us(0), cost.latency_us);
  EXPECT_GT(cost.message_transit_us(1 << 20), cost.message_transit_us(1024));
}

TEST(CostModel, CollectiveLogarithmic) {
  mpism::CostModel cost;
  EXPECT_DOUBLE_EQ(cost.collective_us(1), cost.collective_alpha_us);
  EXPECT_DOUBLE_EQ(cost.collective_us(2), cost.collective_alpha_us);
  EXPECT_DOUBLE_EQ(cost.collective_us(1024), 10 * cost.collective_alpha_us);
  // Monotone in P.
  double prev = 0;
  for (int p = 1; p <= 4096; p *= 2) {
    const double c = cost.collective_us(p);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(OpStats, TotalsAndPerProc) {
  mpism::OpStats stats;
  stats.init(4);
  for (int r = 0; r < 4; ++r) {
    stats.bump(mpism::OpCategory::kSendRecv, r);
    stats.bump(mpism::OpCategory::kSendRecv, r);
    stats.bump(mpism::OpCategory::kWait, r);
  }
  stats.bump(mpism::OpCategory::kCollective, 0);
  stats.bump(mpism::OpCategory::kOther, 1);
  EXPECT_EQ(stats.total(mpism::OpCategory::kSendRecv), 8u);
  EXPECT_EQ(stats.per_proc(mpism::OpCategory::kSendRecv), 2u);
  // kOther excluded from the reported total, as in the paper's log.
  EXPECT_EQ(stats.total_reported(), 13u);
}

TEST(EpochTrace, SortedOrderIsLcThenRankThenIndex) {
  core::RunTrace trace;
  auto add = [&trace](int rank, std::uint64_t nd, std::uint64_t lc) {
    core::EpochRecord rec;
    rec.key = core::EpochKey{rank, nd};
    rec.lc = lc;
    trace.epochs.push_back(rec);
  };
  add(2, 0, 5);
  add(0, 0, 5);
  add(1, 0, 3);
  add(0, 1, 9);
  const auto sorted = trace.sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0]->key.rank, 1);          // lc 3
  EXPECT_EQ(sorted[1]->key.rank, 0);          // lc 5, rank tie-break
  EXPECT_EQ(sorted[2]->key.rank, 2);          // lc 5
  EXPECT_EQ(sorted[3]->key.nd_index, 1u);     // lc 9
}

TEST(EpochTrace, SortedIsMemoizedAndCopySafe) {
  core::RunTrace trace;
  for (int i = 0; i < 4; ++i) {
    core::EpochRecord rec;
    rec.key = core::EpochKey{i, 0};
    rec.lc = static_cast<std::uint64_t>(10 - i);
    trace.epochs.push_back(rec);
  }
  const auto first = trace.sorted();
  const auto second = trace.sorted();  // cache hit
  EXPECT_EQ(first, second);
  for (const auto* e : first) {
    EXPECT_GE(e, trace.epochs.data());
    EXPECT_LT(e, trace.epochs.data() + trace.epochs.size());
  }

  // A copy must re-sort into its own buffer — a carried-over cache would
  // hand out pointers into the original.
  core::RunTrace copy = trace;
  const auto copy_sorted = copy.sorted();
  ASSERT_EQ(copy_sorted.size(), first.size());
  for (std::size_t i = 0; i < copy_sorted.size(); ++i) {
    EXPECT_NE(copy_sorted[i], first[i]);
    EXPECT_EQ(copy_sorted[i]->key, first[i]->key);
    EXPECT_GE(copy_sorted[i], copy.epochs.data());
    EXPECT_LT(copy_sorted[i], copy.epochs.data() + copy.epochs.size());
  }

  // Moving carries the buffer, so cached pointers stay valid in the
  // destination and the source cache is dropped with its epochs.
  core::RunTrace moved = std::move(copy);
  const auto moved_sorted = moved.sorted();
  ASSERT_EQ(moved_sorted.size(), first.size());
  for (const auto* e : moved_sorted) {
    EXPECT_GE(e, moved.epochs.data());
    EXPECT_LT(e, moved.epochs.data() + moved.epochs.size());
  }
}

// IdMap against std::unordered_map under a long random mix of inserts,
// lookups, erases and clears on a small key range, so probe runs collide,
// wrap around the slot array and get backward-shifted on erase.
TEST(IdMap, MatchesUnorderedMapUnderRandomChurn) {
  IdMap<std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(11);
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t key = rng.next_below(64);
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
        table[key] = static_cast<std::uint64_t>(step);
        oracle[key] = static_cast<std::uint64_t>(step);
        break;
      case 3:
      case 4: {
        std::uint64_t out = 0;
        const bool erased = table.erase(key, &out);
        auto it = oracle.find(key);
        ASSERT_EQ(erased, it != oracle.end());
        if (erased) {
          EXPECT_EQ(out, it->second);
          oracle.erase(it);
        }
        break;
      }
      case 5:
        if (rng.next_below(500) == 0) {
          table.clear();
          oracle.clear();
        }
        break;
      default: {
        const std::uint64_t* found = table.find(key);
        auto it = oracle.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    EXPECT_EQ(oracle.at(key), value);
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(ForcedDecisions, FlatMapSemantics) {
  core::ForcedDecisions forced;
  EXPECT_TRUE(forced.empty());
  EXPECT_EQ(forced.count(core::EpochKey{0, 0}), 0u);

  // Out-of-order inserts iterate in key order (the checkpoint and
  // decision-file formats depend on that).
  forced[core::EpochKey{2, 1}] = 7;
  forced[core::EpochKey{0, 3}] = 5;
  forced[core::EpochKey{1, 0}] = 6;
  ASSERT_EQ(forced.size(), 3u);
  std::vector<int> ranks;
  for (const auto& [key, src] : forced) ranks.push_back(key.rank);
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2}));

  // operator[] assigns through; emplace refuses to overwrite.
  forced[core::EpochKey{1, 0}] = 9;
  EXPECT_EQ(forced.find(core::EpochKey{1, 0})->second, 9);
  EXPECT_FALSE(forced.emplace(core::EpochKey{1, 0}, 4));
  EXPECT_EQ(forced.find(core::EpochKey{1, 0})->second, 9);
  EXPECT_TRUE(forced.emplace(core::EpochKey{3, 0}, 4));
  EXPECT_EQ(forced.count(core::EpochKey{3, 0}), 1u);
  EXPECT_EQ(forced.find(core::EpochKey{9, 9}), forced.end());

  // Equality is order-insensitive because storage is canonical.
  core::ForcedDecisions same;
  same[core::EpochKey{3, 0}] = 4;
  same[core::EpochKey{0, 3}] = 5;
  same[core::EpochKey{2, 1}] = 7;
  same[core::EpochKey{1, 0}] = 9;
  EXPECT_EQ(forced, same);
  same[core::EpochKey{0, 3}] = 1;
  EXPECT_NE(forced, same);
}

TEST(Schedule, LookupSemantics) {
  core::Schedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(schedule.lookup(core::EpochKey{0, 0}), mpism::kAnySource);
  schedule.forced[core::EpochKey{1, 2}] = 3;
  EXPECT_FALSE(schedule.empty());
  EXPECT_EQ(schedule.lookup(core::EpochKey{1, 2}), 3);
  EXPECT_EQ(schedule.lookup(core::EpochKey{1, 3}), mpism::kAnySource);
}

TEST(EpochKey, OrderingIsRankThenIndex) {
  using core::EpochKey;
  EXPECT_LT((EpochKey{0, 5}), (EpochKey{1, 0}));
  EXPECT_LT((EpochKey{1, 0}), (EpochKey{1, 1}));
  EXPECT_EQ((EpochKey{2, 3}), (EpochKey{2, 3}));
}

}  // namespace
}  // namespace dampi
