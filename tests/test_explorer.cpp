// Explorer tests: depth-first coverage of the epoch-decision space,
// cross-checked against the brute-force reachability oracle; bug finding
// with reproducing schedules; bounded mixing; budgets.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "support/reference_enumerator.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/matmult.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::BugRecord;
using core::ClockMode;
using core::Explorer;
using core::ExplorerOptions;
using core::Schedule;
using mpism::kAnySource;
using mpism::pack;
using mpism::Proc;

TEST(Explorer, Fig3FindsTheBugInTwoInterleavings) {
  ExplorerOptions options = explorer_options(3);
  Explorer explorer(options);
  auto result = explorer.explore(workloads::fig3_wildcard_bug);
  EXPECT_TRUE(result.found_bug());
  EXPECT_LE(result.interleavings, 2u);
  ASSERT_FALSE(result.bugs.empty());
  const BugRecord& bug = result.bugs.back();
  EXPECT_EQ(bug.kind, BugRecord::Kind::kError);
  ASSERT_FALSE(bug.errors.empty());
  EXPECT_NE(bug.errors[0].message.find("x == 33"), std::string::npos);
}

TEST(Explorer, BugScheduleIsAReproducer) {
  ExplorerOptions options = explorer_options(3);
  Explorer explorer(options);
  auto result = explorer.explore(workloads::fig3_wildcard_bug);
  ASSERT_TRUE(result.found_bug());
  // Re-running the recorded schedule deterministically re-triggers it.
  for (int i = 0; i < 3; ++i) {
    auto rerun =
        run_dampi_once(options, result.bugs.back().schedule,
                       workloads::fig3_wildcard_bug);
    ASSERT_FALSE(rerun.report.errors.empty());
    EXPECT_NE(rerun.report.errors[0].message.find("x == 33"),
              std::string::npos);
  }
}

TEST(Explorer, WildcardDependentDeadlockIsFound) {
  // The lowest-source self-run is benign; only the forced alternate match
  // steers rank 1 into the deadlocking branch.
  ExplorerOptions options = explorer_options(3);
  Explorer explorer(options);
  auto result = explorer.explore(workloads::wildcard_dependent_deadlock);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.bugs.back().kind, BugRecord::Kind::kDeadlock);
  // And the schedule reproduces the deadlock.
  auto rerun = run_dampi_once(options, result.bugs.back().schedule,
                              workloads::wildcard_dependent_deadlock);
  EXPECT_TRUE(rerun.report.deadlocked);
}

TEST(Explorer, MatchesOracleOnFig3) {
  ExplorerOptions options = explorer_options(3);
  ReferenceEnumerator oracle(options, workloads::fig3_benign);
  const auto expected = oracle.enumerate();
  const auto explored = explored_outcomes(options, workloads::fig3_benign);
  EXPECT_EQ(explored, expected);
  // Two genuinely distinct outcomes exist (22-first or 33-first).
  EXPECT_EQ(expected.size(), 2u);
}

TEST(Explorer, SoundAndFindsDeadlockOutcome) {
  // Outcome-set *equality* cannot be promised for buggy programs: a
  // deadlocked run aborts before its unreceived competitors are analyzed,
  // so branches below it stay unexplored (true of DAMPI as published).
  // Soundness (subset of reachable) and discovery of the deadlock
  // outcome itself are the guarantees.
  ExplorerOptions options = explorer_options(3);
  ReferenceEnumerator oracle(options,
                             workloads::wildcard_dependent_deadlock);
  const auto reachable = oracle.enumerate();
  const auto explored =
      explored_outcomes(options, workloads::wildcard_dependent_deadlock);
  for (const auto& o : explored) {
    EXPECT_EQ(reachable.count(o), 1u);
  }
  const bool deadlock_seen =
      std::any_of(explored.begin(), explored.end(),
                  [](const OutcomeSignature& s) { return s.deadlocked; });
  EXPECT_TRUE(deadlock_seen);
}

// §II-F quantified: on the cross-coupled pattern the Lamport explorer
// visits a strict subset of the reachable outcomes; the vector-clock
// explorer visits all of them. (Soundness — subset — holds for both.)
//
// Lamport's miss depends on which matching the *initial* self-run
// happens to observe (see Regression.Fig4ExplorationDeterministicFromPinnedRoot),
// so the initial run is pinned to the canonical matching here: rank 1's
// first wildcard takes P0's send, rank 2's takes P3's.
TEST(Explorer, Fig4LamportIncompleteVectorComplete) {
  core::Schedule canonical_first_run;
  canonical_first_run.forced[core::EpochKey{1, 0}] = 0;
  canonical_first_run.forced[core::EpochKey{2, 0}] = 3;

  ExplorerOptions vec_options = explorer_options(4);
  vec_options.clock_mode = ClockMode::kVector;
  vec_options.initial_schedule = canonical_first_run;
  ReferenceEnumerator oracle(vec_options, workloads::fig4_cross_coupled);
  const auto reachable = oracle.enumerate();
  ASSERT_GE(reachable.size(), 3u);

  const auto vec_explored =
      explored_outcomes(vec_options, workloads::fig4_cross_coupled);

  ExplorerOptions lam_options = explorer_options(4);
  lam_options.clock_mode = ClockMode::kLamport;
  lam_options.initial_schedule = canonical_first_run;
  const auto lam_explored =
      explored_outcomes(lam_options, workloads::fig4_cross_coupled);

  // Soundness: nothing outside the reachable set.
  for (const auto& o : lam_explored) EXPECT_TRUE(reachable.count(o));
  for (const auto& o : vec_explored) EXPECT_TRUE(reachable.count(o));
  // Vector completeness vs Lamport's documented miss.
  EXPECT_EQ(vec_explored, reachable);
  EXPECT_LT(lam_explored.size(), reachable.size());
}

TEST(Explorer, DeterministicProgramIsOneInterleaving) {
  ExplorerOptions options = explorer_options(4);
  Explorer explorer(options);
  auto result = explorer.explore([](Proc& p) {
    const std::uint64_t sum =
        p.allreduce_u64(1, mpism::ReduceOp::kSumU64);
    p.require(sum == 4, "bad sum");
    if (p.rank() > 0) p.send(0, 1, pack<int>(p.rank()));
    if (p.rank() == 0) {
      for (int i = 1; i < 4; ++i) p.recv(i, 1);
    }
  });
  EXPECT_FALSE(result.found_bug());
  EXPECT_EQ(result.interleavings, 1u);
  EXPECT_EQ(result.wildcard_recv_epochs, 0u);
}

TEST(Explorer, PrefixReplayIsExact) {
  ExplorerOptions options = explorer_options(4);
  core::ExploreResult result;
  explored_outcomes(options, workloads::fig3_benign, &result);
  EXPECT_EQ(result.prefix_mismatches, 0u);
  EXPECT_EQ(result.divergences, 0u);
}

TEST(Explorer, InterleavingBudgetIsHonored) {
  ExplorerOptions options = explorer_options(4);
  options.max_interleavings = 3;
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 1;
  Explorer explorer(options);
  auto result = explorer.explore(
      [config](Proc& p) { workloads::matmult(p, config); });
  EXPECT_EQ(result.interleavings, 3u);
  EXPECT_TRUE(result.interleaving_budget_exhausted);
}

TEST(Explorer, MatmultVerifiesCleanAcrossInterleavings) {
  ExplorerOptions options = explorer_options(3);
  options.max_interleavings = 64;
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 2;  // 2 chunks, 2 workers
  Explorer explorer(options);
  auto result = explorer.explore(
      [config](Proc& p) { workloads::matmult(p, config); });
  EXPECT_FALSE(result.found_bug());
  EXPECT_GT(result.interleavings, 1u);
  EXPECT_EQ(result.first_report.comm_leaks, 0);
  EXPECT_EQ(result.first_report.request_leaks, 0u);
}

TEST(Explorer, MatmultOrderBugIsExposedByReplayOnly) {
  // The cursor bug is benign when results return in submission order (the
  // biased native outcome) and corrupts C under any other matching order.
  ExplorerOptions options = explorer_options(3);
  options.max_interleavings = 64;
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 2;
  config.inject_order_bug = true;
  Explorer explorer(options);
  auto result = explorer.explore(
      [config](Proc& p) { workloads::matmult(p, config); });
  EXPECT_TRUE(result.found_bug());
  ASSERT_FALSE(result.bugs.empty());
  EXPECT_EQ(result.bugs.back().kind, BugRecord::Kind::kError);
}

// Bounded mixing: interleaving counts grow with k and cap at unbounded;
// k=0 equals 1 + the initial trace's alternatives.
TEST(Explorer, BoundedMixingMonotoneInK) {
  // Deterministic fixture: all candidates are queued before any wildcard
  // posts, so counts are exact run to run.
  const auto program = [](Proc& p) { workloads::fan_in_rounds(p, 2); };
  auto count_with = [&program](std::optional<int> k) {
    ExplorerOptions options = explorer_options(4);
    options.mixing_bound = k;
    options.max_interleavings = 1u << 16;
    Explorer explorer(options);
    return explorer.explore(program).interleavings;
  };
  const auto k0 = count_with(0);
  const auto k1 = count_with(1);
  const auto k2 = count_with(2);
  const auto unbounded = count_with(std::nullopt);
  EXPECT_LE(k0, k1);
  EXPECT_LE(k1, k2);
  EXPECT_LE(k2, unbounded);
  EXPECT_GT(unbounded, k0);  // the space is genuinely larger unbounded
  // And counts are reproducible.
  EXPECT_EQ(count_with(1), k1);
}

TEST(Explorer, MixingBoundZeroEqualsOnePlusInitialAlternatives) {
  ExplorerOptions options = explorer_options(3);
  options.mixing_bound = 0;

  // First measure the initial trace's alternatives.
  auto initial = run_dampi_once(options, {}, workloads::fig3_benign);
  std::size_t alts = 0;
  for (const auto& e : initial.trace.epochs) alts += e.alternatives.size();

  Explorer explorer(options);
  auto result = explorer.explore(workloads::fig3_benign);
  EXPECT_EQ(result.interleavings, 1u + alts);
}

// Loop abstraction at the explorer level: bracketing the master's collect
// loop collapses the interleaving space to a single run.
TEST(Explorer, LoopAbstractionCollapsesExploration) {
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 1;
  config.abstract_loop = true;
  ExplorerOptions options = explorer_options(3);
  options.max_interleavings = 4096;
  Explorer explorer(options);
  auto result = explorer.explore(
      [config](Proc& p) { workloads::matmult(p, config); });
  EXPECT_FALSE(result.found_bug());
  EXPECT_EQ(result.interleavings, 1u);

  // Without the region the same program explores many interleavings.
  config.abstract_loop = false;
  Explorer explorer2(options);
  auto full = explorer2.explore(
      [config](Proc& p) { workloads::matmult(p, config); });
  EXPECT_GT(full.interleavings, 1u);
}

// Verifier facade: Table II style fields.
TEST(Verifier, ReportsSlowdownLeaksAndRStar) {
  core::VerifyOptions options;
  options.explorer = explorer_options(4);
  options.explorer.max_interleavings = 1;  // overhead measurement only
  core::Verifier verifier(options);
  auto result = verifier.verify(workloads::leaky_program);
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_FALSE(result.error_found);
  EXPECT_EQ(result.comm_leaks, 1);
  EXPECT_EQ(result.request_leaks, 4u);
  EXPECT_GE(result.slowdown, 1.0);
  EXPECT_GT(result.native_vtime_us, 0.0);
}

TEST(Verifier, CleanProgramIsClean) {
  core::VerifyOptions options;
  options.explorer = explorer_options(3);
  core::Verifier verifier(options);
  auto result = verifier.verify(workloads::fig3_benign);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.exploration.wildcard_recv_epochs, 2u);  // R*
}

TEST(Verifier, UnsafeAlertsSurface) {
  core::VerifyOptions options;
  options.explorer = explorer_options(3);
  core::Verifier verifier(options);
  auto result = verifier.verify(workloads::fig10_unsafe_pattern);
  EXPECT_FALSE(result.exploration.unsafe_alerts.empty());
}

// An Explorer object is reusable: explore() resets its search state.
TEST(Explorer, ReusableAcrossCalls) {
  ExplorerOptions options = explorer_options(3);
  Explorer explorer(options);
  const auto first = explorer.explore(workloads::fig3_benign);
  const auto second = explorer.explore(workloads::fig3_benign);
  EXPECT_EQ(first.interleavings, second.interleavings);
  EXPECT_FALSE(second.found_bug());
}

// Auto loop detection composes with bounded mixing: both bounds apply.
TEST(Explorer, AutoLoopComposesWithBoundedMixing) {
  const auto program = [](Proc& p) { workloads::fan_in_rounds(p, 2); };
  auto count = [&program](std::optional<int> k, int auto_threshold) {
    ExplorerOptions options = explorer_options(4);
    options.mixing_bound = k;
    options.auto_loop_threshold = auto_threshold;
    options.max_interleavings = 1u << 14;
    Explorer explorer(options);
    return explorer.explore(program).interleavings;
  };
  // Tighter in either dimension never explores more.
  EXPECT_LE(count(1, 2), count(1, 0));
  EXPECT_LE(count(0, 2), count(std::nullopt, 2));
  EXPECT_LE(count(0, 2), count(0, 0));
}

// The time budget stops exploration and reports it.
TEST(Explorer, TimeBudgetHonored) {
  ExplorerOptions options = explorer_options(4);
  options.max_wall_seconds = 0.0;  // expire immediately after run 1
  workloads::MatmultConfig config;
  config.n = 6;
  config.chunk_rows = 1;
  Explorer explorer(options);
  const auto result = explorer.explore(
      [config](Proc& p) { workloads::matmult(p, config); });
  EXPECT_EQ(result.interleavings, 1u);
  EXPECT_TRUE(result.time_budget_exhausted);
}

// Every run is announced once, as it finishes, under its 1-based
// interleaving index, in exploration order.
TEST(Explorer, RunStatsCallbackSeesEveryRun) {
  ExplorerOptions options = explorer_options(3);
  options.max_interleavings = 64;
  std::vector<std::uint64_t> indices;
  std::vector<bool> completed;
  options.run_stats = [&](const core::RunStats& rs) {
    indices.push_back(rs.interleaving);
    completed.push_back(rs.completed);
    EXPECT_GE(rs.wall_seconds, 0.0);
  };
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 2;
  Explorer explorer(options);
  const auto result = explorer.explore(
      [config](Proc& p) { workloads::matmult(p, config); });
  ASSERT_GT(result.interleavings, 1u);
  ASSERT_EQ(indices.size(), result.interleavings);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i + 1);
    EXPECT_TRUE(completed[i]) << "run " << i + 1;
  }
}

}  // namespace
}  // namespace dampi::test
