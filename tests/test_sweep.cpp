// Fault-sweep campaigns: inventory discovery, deterministic plan
// enumeration under a budget, per-plan verdict classification, the
// crash-safe journal, the two acceptance contracts — report
// byte-identity at any worker count and kill-at-K + --resume
// reproducing the uninterrupted sweep without re-running finished
// plans — and the plan workers: real worker processes (this binary
// re-executed), whose deaths requeue their plan.
#include <gtest/gtest.h>

#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/line_record.hpp"
#include "core/replay_context.hpp"
#include "dist/pool.hpp"
#include "mpism/cancel.hpp"
#include "mpism/fault.hpp"
#include "mpism/scheduler.hpp"
#include "support/digest.hpp"
#include "support/program_gen.hpp"
#include "support/verify_helpers.hpp"
#include "sweep/inventory.hpp"
#include "sweep/journal.hpp"
#include "sweep/sweep.hpp"
#include "sweep/types.hpp"
#include "workloads/adlb.hpp"
#include "workloads/matmult.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::BugRecord;
using core::ExploreResult;
using sweep::OpInventory;
using sweep::PlanRecord;
using sweep::SweepJournal;
using sweep::SweepKinds;
using sweep::SweepOptions;
using sweep::SweepResult;
using sweep::Verdict;

mpism::SchedOptions sched_named(const char* spec) {
  mpism::SchedOptions sched;
  EXPECT_TRUE(mpism::parse_sched_spec(spec, &sched)) << spec;
  return sched;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "dampi_sweep_" + name;
}

/// The argv of a plan worker for a sweep_options(3, "fig3-benign")
/// sweep: this test binary re-executed as sweep_worker_main below, which
/// rebuilds the options from the budget and seed. `mode` picks the
/// worker's program: "clean" runs fig3-benign, "die-once:<file>" SIGKILLs
/// the one worker that creates <file> in the middle of a plan, and
/// "always-die" SIGKILLs every worker as soon as a plan's campaign runs.
std::vector<std::string> plan_worker_argv(const SweepOptions& options,
                                          const std::string& mode) {
  return {"/proc/self/exe", "--dampi-sweep-worker",
          std::to_string(options.budget), std::to_string(options.seed), mode};
}

/// Sweep options pinned to the deterministic coop scheduler with tiny
/// budgets — the fixtures here explore in milliseconds.
SweepOptions sweep_options(int nprocs, const char* program_name) {
  SweepOptions options;
  options.explorer = explorer_options(nprocs);
  options.explorer.sched = sched_named("coop");
  options.program_name = program_name;
  options.plan_max_interleavings = 16;
  options.plan_wall_seconds = 60.0;
  return options;
}

// --- Verdict / kinds vocabulary --------------------------------------------

TEST(SweepTypes, VerdictNamesRoundTrip) {
  for (int v = 0; v < 6; ++v) {
    const Verdict verdict = static_cast<Verdict>(v);
    Verdict parsed;
    ASSERT_TRUE(sweep::parse_verdict(sweep::verdict_name(verdict), &parsed))
        << sweep::verdict_name(verdict);
    EXPECT_EQ(parsed, verdict);
  }
  Verdict parsed;
  EXPECT_FALSE(sweep::parse_verdict("nonsense", &parsed));
}

TEST(SweepTypes, KindsParseAndFormatCanonically) {
  SweepKinds kinds;
  std::string error;
  ASSERT_TRUE(sweep::parse_sweep_kinds("all", &kinds, &error)) << error;
  EXPECT_EQ(sweep::sweep_kinds_spec(kinds), "abort,delay,error,flaky");

  // Spelling order does not matter; the canonical spec is fixed-order.
  ASSERT_TRUE(sweep::parse_sweep_kinds("flaky,abort", &kinds, &error)) << error;
  EXPECT_TRUE(kinds.abort_);
  EXPECT_FALSE(kinds.error_);
  EXPECT_FALSE(kinds.delay_);
  EXPECT_TRUE(kinds.flaky_);
  EXPECT_EQ(sweep::sweep_kinds_spec(kinds), "abort,flaky");

  EXPECT_FALSE(sweep::parse_sweep_kinds("abort,explode", &kinds, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(sweep::parse_sweep_kinds("", &kinds, &error));
}

// --- Inventory harvest -----------------------------------------------------

TEST(SweepInventory, HarvestIsDeterministicUnderCoop) {
  core::ExplorerOptions options = explorer_options(3);
  options.sched = sched_named("coop");
  const OpInventory a = sweep::harvest_inventory(options, workloads::fig3_benign);
  const OpInventory b = sweep::harvest_inventory(options, workloads::fig3_benign);
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(a.ops.size(), 3u);
  EXPECT_GT(a.total_ops(), 0u);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_FALSE(a.baseline_deadlocked);
  EXPECT_FALSE(a.baseline_errored);
  // Every harvested op is one of the five hook kinds, and every rank
  // made at least one call in this fixture.
  for (const std::string& rank_ops : a.ops) {
    EXPECT_FALSE(rank_ops.empty());
    for (const char kind : rank_ops) {
      EXPECT_NE(std::string("srwpc").find(kind), std::string::npos)
          << rank_ops;
    }
  }
}

TEST(SweepInventory, DeadlockedBaselineIsReportedNotFatal) {
  // A program that is already buggy fault-free still yields the ops
  // counted up to the stop — valid injection coordinates — with the
  // baseline verdict flagged so the sweep does not attribute the
  // deadlock to every plan.
  core::ExplorerOptions options = explorer_options(2);
  const OpInventory inv =
      sweep::harvest_inventory(options, workloads::simple_deadlock);
  ASSERT_TRUE(inv.error.empty()) << inv.error;
  EXPECT_TRUE(inv.baseline_deadlocked);
  EXPECT_GT(inv.total_ops(), 0u);
}

TEST(SweepInventory, HungBaselineIsBoundedNotFatal) {
  // A livelocked program never finishes fault-free: the harvest stops it
  // at the sweep's op budget, like every campaign run, and keeps the ops
  // counted up to the stop as injection coordinates.
  core::ExplorerOptions options = explorer_options(3);
  options.sched = sched_named("coop");
  const OpInventory inv =
      sweep::harvest_inventory(options, workloads::livelock);
  ASSERT_TRUE(inv.error.empty()) << inv.error;
  EXPECT_TRUE(inv.baseline_hung);
  EXPECT_FALSE(inv.baseline_deadlocked);
  ASSERT_EQ(inv.ops.size(), 3u);
  EXPECT_GT(inv.ops[1].size(), 1000u);  // rank 1's iprobe loop
  EXPECT_LE(inv.total_ops(), sweep::kSweepMaxRunOps);

  // Enumerating its million coordinates keeps only the budget's plans.
  SweepOptions sweep_opts;
  std::uint64_t planned = 0;
  const auto specs = sweep::enumerate_plans(inv, sweep_opts, &planned);
  EXPECT_EQ(specs.size(), sweep_opts.budget);
  EXPECT_GE(planned, 2 * inv.total_ops());  // every abort and error point
}

TEST(SweepInventory, FaultAndResilienceHooksAreStrippedFromTheHarvest) {
  // The harvest must be fault-free even when the base options carry a
  // plan (the CLI rejects that combination, but the library API must
  // not silently inject during discovery).
  core::ExplorerOptions options = explorer_options(3);
  std::string error;
  options.fault = mpism::parse_fault_plan("abort@0:1", &error);
  ASSERT_NE(options.fault, nullptr) << error;
  const OpInventory inv =
      sweep::harvest_inventory(options, workloads::fig3_benign);
  ASSERT_TRUE(inv.error.empty()) << inv.error;
  EXPECT_FALSE(inv.baseline_errored);
  EXPECT_EQ(options.fault->total_fires(), 0u);
}

// --- Plan enumeration ------------------------------------------------------

OpInventory small_inventory() {
  OpInventory inv;
  inv.ops = {"sw", "rrw", "s"};  // 2 + 3 + 1 = 6 coordinates
  return inv;
}

TEST(SweepEnumerate, ExhaustiveFamiliesAreOpMajorAndComplete) {
  SweepOptions options;
  options.budget = 1000;
  options.kinds = SweepKinds{true, true, false, false};  // abort + error
  std::uint64_t planned = 0;
  const auto specs = sweep::enumerate_plans(small_inventory(), options, &planned);
  // Every coordinate appears once per family.
  EXPECT_EQ(planned, 12u);
  EXPECT_EQ(specs.size(), 12u);
  // Op-major: all op-1 points (across the three ranks) precede any op-2
  // point, so a small budget probes every rank's early calls first.
  EXPECT_EQ(specs[0], "abort@0:1");
  EXPECT_EQ(specs[1], "error@0:1");
  EXPECT_EQ(specs[2], "abort@1:1");
  EXPECT_EQ(specs[3], "error@1:1");
  EXPECT_EQ(specs[4], "abort@2:1");
  EXPECT_EQ(specs[5], "error@2:1");
  EXPECT_EQ(specs[6], "abort@0:2");
  // Rank 1 is the only rank with a third op.
  EXPECT_EQ(specs[10], "abort@1:3");
  EXPECT_EQ(specs[11], "error@1:3");
}

TEST(SweepEnumerate, SameSeedSameSpecsDifferentSeedUsuallyDiffers) {
  SweepOptions options;
  options.budget = 1000;
  options.seed = 42;
  const auto a = sweep::enumerate_plans(small_inventory(), options, nullptr);
  const auto b = sweep::enumerate_plans(small_inventory(), options, nullptr);
  EXPECT_EQ(a, b);
  options.seed = 43;
  const auto c = sweep::enumerate_plans(small_inventory(), options, nullptr);
  EXPECT_NE(a, c);  // 8 delay + 8 flaky draws over 6 coordinates
}

TEST(SweepEnumerate, BudgetTruncatesAndReportsPlannedCount) {
  SweepOptions options;
  options.budget = 5;
  std::uint64_t planned = 0;
  const auto specs = sweep::enumerate_plans(small_inventory(), options, &planned);
  EXPECT_EQ(specs.size(), 5u);
  EXPECT_GT(planned, 5u);
}

TEST(SweepEnumerate, KindsFilterAndDedupHold) {
  SweepOptions options;
  options.budget = 1000;
  options.kinds = SweepKinds{false, false, true, true};  // delay + flaky
  options.delay_samples = 64;
  options.flaky_samples = 64;
  const auto specs = sweep::enumerate_plans(small_inventory(), options, nullptr);
  ASSERT_FALSE(specs.empty());
  std::set<std::string> coords;
  for (const std::string& spec : specs) {
    const bool delay = spec.rfind("delay@", 0) == 0;
    const bool flaky = spec.rfind("flaky@", 0) == 0;
    EXPECT_TRUE(delay || flaky) << spec;
    // Dedup is by (kind, rank, op) — the coordinate without the
    // parameter value.
    const std::string coord = spec.substr(0, spec.rfind(':'));
    EXPECT_TRUE(coords.insert(coord).second) << "duplicate point " << spec;
  }
  // 64 draws over 6 coordinates saturate both families.
  EXPECT_EQ(specs.size(), 12u);
}

TEST(SweepEnumerate, EverySpecIsParseable) {
  SweepOptions options;
  options.budget = 1000;
  const auto specs = sweep::enumerate_plans(small_inventory(), options, nullptr);
  for (const std::string& spec : specs) {
    std::string error;
    EXPECT_NE(mpism::parse_fault_plan(spec, &error), nullptr)
        << spec << ": " << error;
  }
}

// --- Verdict classification ------------------------------------------------

ExploreResult result_with(BugRecord::Kind kind, const char* message) {
  ExploreResult result;
  result.interleavings = 3;
  BugRecord bug;
  bug.kind = kind;
  if (message != nullptr) bug.errors.push_back({0, message});
  result.bugs.push_back(bug);
  return result;
}

TEST(SweepClassify, VerdictPriorityAndLatentErrorDetection) {
  // Deadlock outranks everything.
  ExploreResult mixed = result_with(BugRecord::Kind::kDeadlock, nullptr);
  mixed.bugs.push_back(
      result_with(BugRecord::Kind::kError, "fault injected: abort").bugs[0]);
  EXPECT_EQ(sweep::classify_campaign(0, "abort@0:1", mixed, 1).verdict,
            Verdict::kDeadlock);

  EXPECT_EQ(sweep::classify_campaign(
                0, "abort@0:1", result_with(BugRecord::Kind::kHang, nullptr), 1)
                .verdict,
            Verdict::kHang);

  // An error that IS the injection: propagated, no latent bug.
  const PlanRecord propagated = sweep::classify_campaign(
      1, "abort@0:1",
      result_with(BugRecord::Kind::kError, "fault injected: abort@0:1"), 1);
  EXPECT_EQ(propagated.verdict, Verdict::kErrorPropagated);
  EXPECT_TRUE(propagated.latent_error.empty());

  // An error that is NOT the injection: the latent bug travels.
  const PlanRecord latent = sweep::classify_campaign(
      2, "delay@1:2:100",
      result_with(BugRecord::Kind::kError, "assertion failed: sum mismatch"),
      1);
  EXPECT_EQ(latent.verdict, Verdict::kErrorPropagated);
  EXPECT_EQ(latent.latent_error, "assertion failed: sum mismatch");

  // No bugs + fires: masked. No bugs + no fires: clean.
  ExploreResult quiet;
  quiet.interleavings = 4;
  EXPECT_EQ(sweep::classify_campaign(3, "flaky@0:1:2", quiet, 2).verdict,
            Verdict::kMasked);
  EXPECT_EQ(sweep::classify_campaign(4, "abort@2:9", quiet, 0).verdict,
            Verdict::kClean);

  // Budget exhaustion marks the campaign partial.
  quiet.interleaving_budget_exhausted = true;
  EXPECT_TRUE(sweep::classify_campaign(5, "abort@0:1", quiet, 0).partial);
}

// --- Journal ---------------------------------------------------------------

SweepJournal sample_journal() {
  SweepJournal journal;
  journal.fingerprint = "fp sweep budget=4";
  PlanRecord a;
  a.index = 0;
  a.spec = "abort@0:1";
  a.verdict = Verdict::kErrorPropagated;
  a.interleavings = 3;
  a.fires = 1;
  a.bugs = 1;
  journal.records[0] = a;
  PlanRecord b;
  b.index = 2;
  b.spec = "delay@1:2:100";
  b.verdict = Verdict::kErrorPropagated;
  b.interleavings = 5;
  b.fires = 1;
  b.bugs = 2;
  b.partial = true;
  b.latent_error = "assertion failed:\nsum mismatch";
  journal.records[2] = b;
  return journal;
}

TEST(SweepJournalTest, SerializeParseRoundTrip) {
  const SweepJournal journal = sample_journal();
  std::string error;
  const auto parsed = sweep::parse_sweep_journal(
      sweep::serialize_sweep_journal(journal), journal.fingerprint, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->fingerprint, journal.fingerprint);
  ASSERT_EQ(parsed->records.size(), 2u);
  const PlanRecord& a = parsed->records.at(0);
  EXPECT_EQ(a.spec, "abort@0:1");
  EXPECT_EQ(a.verdict, Verdict::kErrorPropagated);
  EXPECT_EQ(a.interleavings, 3u);
  EXPECT_EQ(a.fires, 1u);
  EXPECT_EQ(a.bugs, 1u);
  EXPECT_FALSE(a.partial);
  EXPECT_TRUE(a.latent_error.empty());
  const PlanRecord& b = parsed->records.at(2);
  EXPECT_EQ(b.spec, "delay@1:2:100");
  EXPECT_TRUE(b.partial);
  EXPECT_EQ(b.latent_error, "assertion failed:\nsum mismatch");
}

TEST(SweepJournalTest, LoadRefusesCorruptOrForeignFiles) {
  const std::string good = sweep::serialize_sweep_journal(sample_journal());
  std::string error;

  // Fingerprint from a different sweep configuration.
  EXPECT_FALSE(
      sweep::parse_sweep_journal(good, "other fingerprint", &error).has_value());
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;

  // Not a sweep journal at all.
  EXPECT_FALSE(sweep::parse_sweep_journal("# some other file\nend\n", "", &error)
                   .has_value());

  // Truncated (missing `end` trailer).
  const std::string truncated = good.substr(0, good.size() - 4);
  EXPECT_FALSE(sweep::parse_sweep_journal(truncated, "", &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  // Duplicate plan index.
  std::string dup = good;
  const auto plan_at = dup.find("plan 0 ");
  ASSERT_NE(plan_at, std::string::npos);
  const auto line_end = dup.find('\n', plan_at);
  dup.insert(line_end + 1, dup.substr(plan_at, line_end + 1 - plan_at));
  EXPECT_FALSE(sweep::parse_sweep_journal(dup, "", &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;

  // `latent` with no preceding plan line.
  EXPECT_FALSE(sweep::parse_sweep_journal(
                   std::string(sweep::kSweepJournalHeader) +
                       "\noptions fp\nlatent 0 boom\nend\n",
                   "", &error)
                   .has_value());
}

TEST(SweepJournalTest, SaveAndLoadThroughTheFilesystem) {
  const std::string path = temp_path("journal");
  std::remove(path.c_str());
  const SweepJournal journal = sample_journal();
  ASSERT_TRUE(sweep::save_sweep_journal(journal, path));
  std::string error;
  const auto loaded =
      sweep::load_sweep_journal(path, journal.fingerprint, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->records.size(), 2u);
  std::remove(path.c_str());
}

// --- Fingerprint -----------------------------------------------------------

TEST(SweepFingerprint, CoversPlanShapingKnobsAndIgnoresExecutionKnobs) {
  SweepOptions base = sweep_options(3, "fig3-benign");
  const std::string fp = sweep::sweep_fingerprint(base);

  SweepOptions changed = base;
  changed.budget = 7;
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);
  changed = base;
  changed.seed = 9;
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);
  changed = base;
  changed.kinds = SweepKinds{true, false, false, false};
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);
  changed = base;
  changed.plan_max_interleavings = 99;
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);
  changed = base;
  changed.program_name = "other";
  EXPECT_NE(sweep::sweep_fingerprint(changed), fp);

  // Worker count, journal knobs and the wall-clock safety net may change
  // across a resume without invalidating the journal.
  changed = base;
  changed.workers = 8;
  changed.journal_path = "/tmp/elsewhere";
  changed.resume = true;
  changed.plan_wall_seconds = 1.0;
  EXPECT_EQ(sweep::sweep_fingerprint(changed), fp);
}

// Existing sweep journals carry this text and a resume compares it byte
// for byte, so it must not move.
TEST(SweepFingerprint, DefaultAdlbTextIsPinned) {
  SweepOptions options;
  options.explorer.sched = mpism::SchedOptions{};
  options.program_name = "adlb";
  EXPECT_EQ(sweep::sweep_fingerprint(options),
            "nprocs=2 clock=0 transport=0 mix=none loopabs=1 unsafe=1 "
            "autoloop=0 defsync=0 sched=coop-rr schedseed=1 por=sleep "
            "policy=0 pseed=1 init=14650fb0739d0383 fault=none tag=adlb "
            "sweep budget=64 seed=1 kinds=abort,delay,error,flaky delays=8 "
            "flakys=8 planil=256 planops=1048576");
}

// --- Whole-sweep contracts -------------------------------------------------

TEST(Sweep, RejectsAPreInstalledFaultPlanAndBadResume) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  std::string error;
  options.explorer.fault = mpism::parse_fault_plan("abort@0:1", &error);
  ASSERT_NE(options.explorer.fault, nullptr) << error;
  SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(sweep::sweep_exit_code(result), 3);

  SweepOptions bad_resume = sweep_options(3, "fig3-benign");
  bad_resume.resume = true;  // no journal path
  result = sweep::run_sweep(bad_resume, workloads::fig3_benign);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(sweep::sweep_exit_code(result), 3);
}

TEST(Sweep, AbortPointsSurfaceAndDelayPointsAreMasked) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 64;
  options.kinds = SweepKinds{true, false, true, false};  // abort + delay
  const SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  // Without error plans no two plans share an effect: each of the four
  // abort plans runs itself, and the three delay plans are observed on
  // one walk.
  ASSERT_EQ(result.records.size(), 7u);
  EXPECT_EQ(result.executed, 4u);
  EXPECT_EQ(result.shared, 3u);
  EXPECT_FALSE(result.interrupted);

  std::uint64_t aborts_surfaced = 0;
  for (const PlanRecord& record : result.records) {
    if (record.spec.rfind("abort@", 0) == 0) {
      // Killing an op either surfaces as an error or wedges the peers.
      EXPECT_TRUE(record.verdict == Verdict::kErrorPropagated ||
                  record.verdict == Verdict::kDeadlock)
          << record.spec << " -> " << sweep::verdict_name(record.verdict);
      EXPECT_GE(record.fires, 1u) << record.spec;
      ++aborts_surfaced;
    } else {
      // fig3-benign tolerates pure timing perturbation.
      EXPECT_EQ(record.verdict, Verdict::kMasked)
          << record.spec << " -> " << sweep::verdict_name(record.verdict);
    }
  }
  EXPECT_GT(aborts_surfaced, 0u);
  // Exit 1 is reserved for crash-tolerance BUGS (deadlock, hang, latent
  // error). A fault that merely propagates is the tolerant outcome, so
  // the code is 1 exactly when some peer wedged on the dead rank.
  bool any_deadlock = false;
  for (const PlanRecord& record : result.records) {
    any_deadlock = any_deadlock || record.verdict == Verdict::kDeadlock;
  }
  EXPECT_EQ(sweep::sweep_exit_code(result), any_deadlock ? 1 : 0);
}

TEST(Sweep, DeadlockVerdictsRaiseTheBugExitCode) {
  // The fixture deadlocks only under one wildcard outcome; campaigns
  // replay the full interleaving space, so the deadlock surfaces in the
  // matrix and the sweep exits 1 (crash-tolerance bug found).
  SweepOptions options = sweep_options(3, "wildcard-deadlock");
  options.budget = 8;
  options.kinds = SweepKinds{false, false, true, false};  // delay only
  options.delay_samples = 16;
  const SweepResult result =
      sweep::run_sweep(options, workloads::wildcard_dependent_deadlock);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_FALSE(result.records.empty());
  bool any_deadlock = false;
  for (const PlanRecord& record : result.records) {
    any_deadlock = any_deadlock || record.verdict == Verdict::kDeadlock;
  }
  EXPECT_TRUE(any_deadlock);
  EXPECT_EQ(sweep::sweep_exit_code(result), 1);
}

TEST(Sweep, FlakyPointsAreHealedByTheRetryPath) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.kinds = SweepKinds{false, false, false, true};  // flaky only
  options.flaky_samples = 4;
  const SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_FALSE(result.records.empty());
  for (const PlanRecord& record : result.records) {
    // The campaign is granted enough retries to burn the flaky cap, so
    // the fault fires and is then masked by the retry machinery.
    EXPECT_EQ(record.verdict, Verdict::kMasked)
        << record.spec << " -> " << sweep::verdict_name(record.verdict);
    EXPECT_GE(record.fires, 1u) << record.spec;
  }
  EXPECT_EQ(sweep::sweep_exit_code(result), 0);
}

TEST(Sweep, ReportIsByteIdenticalAtAnyWorkerCount) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 24;
  options.seed = 7;
  const SweepResult one = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(one.error.empty()) << one.error;
  const std::string reference = sweep::format_sweep_report_json(options, one);
  EXPECT_NE(reference.find("\"plans\""), std::string::npos);
  // Four abort/error pairs, each run once, and seven delay and flaky
  // plans observed on one walk: 4 campaigns for 15 records.
  ASSERT_EQ(one.records.size(), 15u);
  EXPECT_EQ(one.executed, 4u);
  EXPECT_EQ(one.shared, 11u);

  for (const int workers : {2, 4}) {
    SweepOptions parallel = options;
    parallel.workers = workers;
    parallel.worker_argv = plan_worker_argv(options, "clean");
    const SweepResult result =
        sweep::run_sweep(parallel, workloads::fig3_benign);
    ASSERT_TRUE(result.error.empty()) << result.error;
    EXPECT_EQ(sweep::format_sweep_report_json(parallel, result), reference)
        << "workers=" << workers;
    // Workers run one walk per effect, as the serial loop does, and
    // the fault-free walk of the delay and flaky plans as a batch.
    EXPECT_EQ(result.executed, one.executed) << "workers=" << workers;
    EXPECT_EQ(result.shared, one.shared) << "workers=" << workers;
  }
}

/// The record of `spec`'s campaign run straight through the explorer,
/// with the per-plan budgets a sweep documents (plan interleaving and
/// wall budgets, the sweep's 2^20-op hang watchdog, as many retries as a
/// flaky point's cap), not through run_sweep.
PlanRecord own_campaign(const SweepOptions& options, std::uint64_t index,
                        const std::string& spec,
                        const mpism::ProgramFn& program) {
  std::string error;
  const auto plan = mpism::parse_fault_plan(spec, &error);
  EXPECT_NE(plan, nullptr) << error;
  if (plan == nullptr) return PlanRecord{};
  core::ExplorerOptions opts = options.explorer;
  opts.fault = plan;
  opts.max_interleavings = options.plan_max_interleavings;
  opts.max_wall_seconds = options.plan_wall_seconds;
  opts.max_run_ops = std::uint64_t{1} << 20;
  for (const mpism::FaultPoint& point : plan->points()) {
    opts.max_retries =
        std::max(opts.max_retries, static_cast<int>(point.max_fires));
  }
  const ExploreResult outcome = core::Explorer(opts).explore(program);
  return sweep::classify_campaign(index, spec, outcome, plan->total_fires());
}

/// Delay and flaky plans: the plans a sweep observes on one walk.
bool observed_spec(const std::string& spec) {
  return spec.rfind("delay@", 0) == 0 || spec.rfind("flaky@", 0) == 0;
}

void expect_same_record(const PlanRecord& got, const PlanRecord& want) {
  EXPECT_EQ(got.index, want.index) << want.spec;
  EXPECT_EQ(got.spec, want.spec);
  EXPECT_EQ(got.verdict, want.verdict) << want.spec;
  EXPECT_EQ(got.interleavings, want.interleavings) << want.spec;
  EXPECT_EQ(got.fires, want.fires) << want.spec;
  EXPECT_EQ(got.bugs, want.bugs) << want.spec;
  EXPECT_EQ(got.partial, want.partial) << want.spec;
  EXPECT_EQ(got.latent_error, want.latent_error) << want.spec;
}

// A shared record is the record its own campaign would give: under the
// default kinds every error@R:OP plan copies the abort@R:OP record
// enumerated just before it, and running the error plan's campaign
// directly gives the same record field by field.
TEST(Sweep, SharedRecordsEqualTheirOwnCampaigns) {
  struct Case {
    const char* name;
    mpism::ProgramFn program;
  };
  const Case cases[] = {
      {"adlb", [](mpism::Proc& p) { workloads::adlb::run(p, {}); }},
      {"matmult", [](mpism::Proc& p) { workloads::matmult(p, {}); }},
  };
  for (const Case& c : cases) {
    SweepOptions options = sweep_options(4, c.name);
    options.budget = 512;  // every planned point
    const SweepResult result = sweep::run_sweep(options, c.program);
    ASSERT_TRUE(result.error.empty()) << c.name << ": " << result.error;
    std::uint64_t errors = 0;
    std::uint64_t observed = 0;
    for (const PlanRecord& record : result.records) {
      if (observed_spec(record.spec)) ++observed;
      if (record.spec.rfind("error@", 0) != 0) continue;
      ++errors;
      expect_same_record(
          record, own_campaign(options, record.index, record.spec, c.program));
    }
    EXPECT_GT(errors, 0u) << c.name;
    EXPECT_EQ(result.shared, errors + observed) << c.name;
    EXPECT_EQ(result.executed + result.shared, result.records.size())
        << c.name;
  }
}

// --- Cut views -------------------------------------------------------------

/// What the explorer reads of one epoch.
struct EpochFacts {
  core::EpochKey key;
  std::uint64_t lc = 0;
  mpism::Rank matched = -1;
  std::vector<mpism::Rank> alternatives;
  bool operator==(const EpochFacts&) const = default;
};

std::vector<EpochFacts> epoch_facts(const core::RunTrace& trace) {
  std::vector<EpochFacts> facts;
  for (const core::EpochRecord& epoch : trace.epochs) {
    EpochFacts f{epoch.key, epoch.lc, epoch.matched_src_world, {}};
    for (const auto& [src, match] : epoch.alternatives) {
      f.alternatives.push_back(src);
    }
    facts.push_back(std::move(f));
  }
  std::sort(facts.begin(), facts.end(),
            [](const EpochFacts& a, const EpochFacts& b) {
              return a.key < b.key;
            });
  return facts;
}

std::vector<std::string> error_texts(const mpism::RunReport& report) {
  std::vector<std::string> out;
  for (const mpism::ErrorInfo& e : report.errors) {
    out.push_back(std::to_string(e.rank) + ": " + e.message);
  }
  return out;
}

// The cut view of a fault-free replay at an abort point is the run that
// stopped there: for every abort point of the program's inventory,
// under the self-run schedule and the schedules of the walk's first
// guided replays, the view of the replay with every point counted has
// the stopped run's epochs (keys, clocks, matches, alternative sources),
// alerts and verdict — and is the replay itself where the point is
// never reached.
TEST(CutView, EqualsTheStoppedRunAtEveryAbortPoint) {
  struct Case {
    std::string name;
    int nprocs;
    mpism::ProgramFn program;
  };
  std::vector<Case> cases = {
      {"adlb", 4, [](mpism::Proc& p) { workloads::adlb::run(p, {}); }},
      {"matmult", 4, [](mpism::Proc& p) { workloads::matmult(p, {}); }},
  };
  for (const std::uint64_t seed : {5u, 11u, 42u, 733u}) {
    const GeneratedProgram prog =
        generate_program(seed, 3 + static_cast<int>(seed % 2), 4, seed > 40);
    cases.push_back({"generated seed " + std::to_string(seed), prog.nprocs,
                     [prog](mpism::Proc& p) { run_generated(p, prog); }});
  }
  for (const Case& c : cases) {
    core::ExplorerOptions options = explorer_options(c.nprocs);
    options.sched = sched_named("coop");
    const OpInventory inventory = sweep::harvest_inventory(options, c.program);
    ASSERT_TRUE(inventory.error.empty()) << c.name << ": " << inventory.error;
    // Every inventory point, and one past each rank's last op, which no
    // run reaches.
    std::vector<mpism::FaultPoint> points;
    for (std::size_t rank = 0; rank < inventory.ops.size(); ++rank) {
      for (std::uint64_t op = 1; op <= inventory.ops[rank].size() + 1; ++op) {
        mpism::FaultPoint point;
        point.rank = static_cast<mpism::Rank>(rank);
        point.op_index = op;
        points.push_back(point);
      }
    }
    ASSERT_FALSE(points.empty()) << c.name;

    std::vector<core::Schedule> schedules;
    core::ExplorerOptions walk = options;
    walk.max_interleavings = 6;
    core::Explorer(walk).explore(
        c.program, [&schedules](const core::RunTrace&, const mpism::RunReport&,
                                const core::Schedule& schedule) {
          schedules.push_back(schedule);
        });

    const auto counted = std::make_shared<mpism::FaultPlan>(points, true);
    core::ExplorerOptions counting = options;
    counting.fault = counted;
    core::ReplayContext context(counting);
    core::SingleRun run;
    core::SingleRun scratch;
    std::size_t reached = 0;
    for (const core::Schedule& schedule : schedules) {
      counted->reset_reach();
      context.run(schedule, c.program, &run);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string where =
            c.name + " " + mpism::fault_point_spec(points[i]);
        core::ExplorerOptions faulted = options;
        faulted.fault = std::make_shared<mpism::FaultPlan>(
            std::vector<mpism::FaultPoint>{points[i]});
        const core::SingleRun real =
            core::run_guided_once(faulted, schedule, c.program);
        const mpism::FaultPlan::Reach& reach = counted->reach(i);
        core::RunCut cut;
        if (reach.call_seq != 0) {
          ++reached;
          cut.call_seq = reach.call_seq;
          cut.error = mpism::injected_error(points[i], reach.call);
        }
        const core::SingleRun& view = core::cut_view(run, cut, &scratch);
        EXPECT_EQ(&view == &run, reach.call_seq == 0) << where;
        EXPECT_EQ(view.report.completed, real.report.completed) << where;
        EXPECT_EQ(view.report.deadlocked, real.report.deadlocked) << where;
        EXPECT_EQ(error_texts(view.report), error_texts(real.report)) << where;
        EXPECT_EQ(epoch_facts(view.trace), epoch_facts(real.trace)) << where;
        std::vector<std::string> view_alerts, real_alerts;
        for (const auto& a : view.trace.alerts) view_alerts.push_back(a.detail);
        for (const auto& a : real.trace.alerts) real_alerts.push_back(a.detail);
        EXPECT_EQ(view_alerts, real_alerts) << where;
      }
    }
    // The inventory came from the self-run, so each of its points is
    // reached there at least.
    EXPECT_GE(reached, points.size() - inventory.ops.size()) << c.name;
    EXPECT_LT(reached, points.size() * schedules.size()) << c.name;
  }
}

// A derived record is the record its own campaign would give: every
// abort and error plan's walk, fed the fault-free replays it shares
// with the other plans of its fault rank cut at its point, records what
// running its campaign straight through the explorer records, field by
// field — on programs with program errors and deadlocks, under vector
// clocks, a mixing bound and automatic loop abstraction.
TEST(Sweep, DerivedRecordsEqualTheirOwnCampaigns) {
  struct Case {
    const char* name;
    int nprocs;
    mpism::ProgramFn program;
    std::function<void(core::ExplorerOptions*)> tweak;
  };
  const Case cases[] = {
      {"adlb", 4, [](mpism::Proc& p) { workloads::adlb::run(p, {}); }, {}},
      {"matmult", 4, [](mpism::Proc& p) { workloads::matmult(p, {}); }, {}},
      {"matmult-bug", 4,
       [](mpism::Proc& p) {
         workloads::matmult(p, {.inject_order_bug = true});
       },
       {}},
      {"wildcard-deadlock", 3, workloads::wildcard_dependent_deadlock, {}},
      {"fig4-vector", 4, workloads::fig4_cross_coupled,
       [](core::ExplorerOptions* o) {
         o->clock_mode = core::ClockMode::kVector;
       }},
      {"adlb-k1", 4, [](mpism::Proc& p) { workloads::adlb::run(p, {}); },
       [](core::ExplorerOptions* o) { o->mixing_bound = 1; }},
      {"fan-in-autoloop", 3,
       [](mpism::Proc& p) { workloads::fan_in_rounds(p, 4); },
       [](core::ExplorerOptions* o) { o->auto_loop_threshold = 2; }},
  };
  for (const Case& c : cases) {
    SweepOptions options = sweep_options(c.nprocs, c.name);
    options.budget = 512;  // every planned point
    options.kinds = SweepKinds{true, true, false, false};  // abort + error
    if (c.tweak) c.tweak(&options.explorer);
    const SweepResult result = sweep::run_sweep(options, c.program);
    ASSERT_TRUE(result.error.empty()) << c.name << ": " << result.error;
    ASSERT_EQ(result.records.size(), result.planned) << c.name;
    for (const PlanRecord& record : result.records) {
      expect_same_record(
          record, own_campaign(options, record.index, record.spec, c.program));
    }
    // Every abort/error pair has one walk.
    EXPECT_EQ(result.executed, result.records.size() / 2) << c.name;
    EXPECT_EQ(result.shared, result.records.size() / 2) << c.name;
    // The tallies behind the records are exercised: latent program
    // errors under matmult-bug, budget-capped walks under adlb.
    if (std::string_view(c.name) == "matmult-bug") {
      EXPECT_TRUE(std::any_of(result.records.begin(), result.records.end(),
                              [](const PlanRecord& r) {
                                return !r.latent_error.empty();
                              }));
    }
    if (std::string_view(c.name) == "adlb") {
      EXPECT_TRUE(std::any_of(result.records.begin(), result.records.end(),
                              [](const PlanRecord& r) { return r.partial; }));
    }
  }
}

// A shared replay runs whole: no rank body of a derived or observed
// lane's replay exits by unwinding, since a lane takes its cut view of
// the finished replay instead of stopping it. A campaign of its own
// still stops at its fault: a --fault explore, and a sweep on the
// thread scheduler, whose plans run their own campaigns, unwind.
TEST(Sweep, SharedReplaysRunWholeAndOwnCampaignsStillStop) {
  struct Guard {
    std::atomic<std::uint64_t>* unwound;
    ~Guard() {
      if (std::uncaught_exceptions() > 0) ++*unwound;
    }
  };
  std::atomic<std::uint64_t> bodies{0};
  std::atomic<std::uint64_t> unwound{0};
  const mpism::ProgramFn program = [&](mpism::Proc& p) {
    ++bodies;
    Guard guard{&unwound};
    workloads::adlb::run(p, {});
  };

  SweepOptions options = sweep_options(4, "adlb");
  options.budget = 512;  // every abort, error, delay and flaky plan
  const SweepResult shared = sweep::run_sweep(options, program);
  ASSERT_TRUE(shared.error.empty()) << shared.error;
  EXPECT_GT(shared.shared, 0u);
  EXPECT_TRUE(std::any_of(shared.records.begin(), shared.records.end(),
                          [](const PlanRecord& r) {
                            return r.verdict == Verdict::kErrorPropagated;
                          }));
  EXPECT_GT(bodies.load(), 0u);
  EXPECT_EQ(unwound.load(), 0u);

  unwound = 0;
  core::ExplorerOptions faulted = options.explorer;
  std::string error;
  faulted.fault = mpism::parse_fault_plan("abort@1:2", &error);
  ASSERT_NE(faulted.fault, nullptr) << error;
  faulted.max_interleavings = 4;
  core::Explorer(faulted).explore(program);
  EXPECT_GT(unwound.load(), 0u) << "--fault";

  unwound = 0;
  SweepOptions threaded = options;
  threaded.budget = 4;
  threaded.explorer.sched = sched_named("thread");
  const SweepResult own = sweep::run_sweep(threaded, program);
  ASSERT_TRUE(own.error.empty()) << own.error;
  EXPECT_GT(unwound.load(), 0u) << "--sched thread";
}

// On --resume, either journalled half of an abort/error pair satisfies
// the pair: the other half is shared from the journal, not run, and the
// report is the uninterrupted sweep's byte for byte.
TEST(Sweep, AJournalledHalfOfAPairSharesWithTheOtherHalf) {
  const std::string journal_path = temp_path("half_pair");
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 8;  // the four abort/error pairs of fig3-benign
  const SweepResult reference = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(reference.error.empty()) << reference.error;
  ASSERT_EQ(reference.records.size(), 8u);
  EXPECT_EQ(reference.executed, 4u);
  EXPECT_EQ(reference.shared, 4u);
  const std::string reference_report =
      sweep::format_sweep_report_json(options, reference);

  SweepOptions resumed = options;
  resumed.journal_path = journal_path;
  resumed.resume = true;
  for (const auto& [index, spec] :
       {std::pair<std::uint64_t, const char*>{0, "abort@0:1"},
        {3, "error@1:1"}}) {
    ASSERT_EQ(reference.records[index].spec, spec);
    SweepJournal journal;
    journal.fingerprint = sweep::sweep_fingerprint(options);
    journal.records[index] = reference.records[index];
    std::remove(journal_path.c_str());
    ASSERT_TRUE(sweep::save_sweep_journal(journal, journal_path));

    const SweepResult finished =
        sweep::run_sweep(resumed, workloads::fig3_benign);
    ASSERT_TRUE(finished.error.empty()) << finished.error;
    EXPECT_EQ(finished.resumed, 1u) << spec;
    EXPECT_EQ(finished.executed, 3u) << spec;
    EXPECT_EQ(finished.shared, 4u) << spec;
    EXPECT_EQ(sweep::format_sweep_report_json(resumed, finished),
              reference_report)
        << spec;
  }
  std::remove(journal_path.c_str());
}

// An observed record is the record its own campaign would give: every
// delay and flaky plan's record, read off one fault-free walk, equals
// the one its campaign run directly through the explorer gives, field
// by field — on matmult-bug, whose runs fail with program errors that
// the flaky retries compete with, and on wildcard-deadlock, whose
// deadlock verdict must come out of the observation.
TEST(Sweep, ObservedRecordsEqualTheirOwnCampaigns) {
  struct Case {
    const char* name;
    int nprocs;
    mpism::ProgramFn program;
  };
  const Case cases[] = {
      {"adlb", 4, [](mpism::Proc& p) { workloads::adlb::run(p, {}); }},
      {"matmult", 4, [](mpism::Proc& p) { workloads::matmult(p, {}); }},
      {"matmult-bug", 4,
       [](mpism::Proc& p) {
         workloads::matmult(p, {.inject_order_bug = true});
       }},
      {"wildcard-deadlock", 3, workloads::wildcard_dependent_deadlock},
  };
  for (const Case& c : cases) {
    SweepOptions options = sweep_options(c.nprocs, c.name);
    options.budget = 512;  // every planned point
    const SweepResult result = sweep::run_sweep(options, c.program);
    ASSERT_TRUE(result.error.empty()) << c.name << ": " << result.error;
    std::uint64_t observed = 0;
    std::uint64_t errors = 0;
    std::set<Verdict> verdicts;
    for (const PlanRecord& record : result.records) {
      if (record.spec.rfind("error@", 0) == 0) ++errors;
      if (!observed_spec(record.spec)) continue;
      ++observed;
      verdicts.insert(record.verdict);
      expect_same_record(
          record, own_campaign(options, record.index, record.spec, c.program));
    }
    EXPECT_GT(observed, 0u) << c.name;
    EXPECT_EQ(result.shared, errors + observed) << c.name;
    EXPECT_EQ(result.executed + result.shared, result.records.size())
        << c.name;
    if (std::string_view(c.name) == "matmult-bug") {
      EXPECT_TRUE(verdicts.count(Verdict::kErrorPropagated)) << c.name;
    }
    if (std::string_view(c.name) == "wildcard-deadlock") {
      EXPECT_TRUE(verdicts.count(Verdict::kDeadlock)) << c.name;
    }
  }
}

// On --resume, journalled delay and flaky plans are not derived again:
// the fault-free walk records only the others, and the report is the
// uninterrupted sweep's byte for byte.
TEST(Sweep, AJournalledHalfOfTheObservedPlansIsNotDerivedAgain) {
  const std::string journal_path = temp_path("half_observed");
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 12;
  options.seed = 3;
  const SweepResult reference = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(reference.error.empty()) << reference.error;
  ASSERT_EQ(reference.records.size(), 12u);
  const std::string reference_report =
      sweep::format_sweep_report_json(options, reference);

  SweepJournal journal;
  journal.fingerprint = sweep::sweep_fingerprint(options);
  std::vector<std::uint64_t> observed;
  for (const PlanRecord& record : reference.records) {
    if (observed_spec(record.spec)) observed.push_back(record.index);
  }
  ASSERT_EQ(observed.size(), 4u);
  for (std::size_t i = 0; i < observed.size() / 2; ++i) {
    journal.records[observed[i]] = reference.records[observed[i]];
  }
  std::remove(journal_path.c_str());
  ASSERT_TRUE(sweep::save_sweep_journal(journal, journal_path));

  SweepOptions resumed = options;
  resumed.journal_path = journal_path;
  resumed.resume = true;
  std::vector<std::uint64_t> recorded;
  resumed.on_plan_done = [&recorded](const PlanRecord& record) {
    if (observed_spec(record.spec)) recorded.push_back(record.index);
  };
  const SweepResult finished = sweep::run_sweep(resumed, workloads::fig3_benign);
  ASSERT_TRUE(finished.error.empty()) << finished.error;
  EXPECT_EQ(finished.resumed, 2u);
  EXPECT_EQ(finished.executed, 4u);
  EXPECT_EQ(finished.shared, 6u);  // four error copies, two observed
  EXPECT_EQ(recorded,
            std::vector<std::uint64_t>(observed.begin() + 2, observed.end()));
  EXPECT_EQ(sweep::format_sweep_report_json(resumed, finished),
            reference_report);
  std::remove(journal_path.c_str());
}

// Observation needs a walk that only DAMPI instruments, on the coop
// scheduler: with extra layers stacked (the ISP layer decides on virtual
// time) or with a thread per rank (a retry need not repeat its run),
// every delay and flaky plan runs its own campaign again.
TEST(Sweep, ExtraLayersOrThreadsRunDelayAndFlakyPlansThemselves) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 12;
  options.seed = 3;
  const SweepResult plain = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(plain.error.empty()) << plain.error;

  SweepOptions layered = options;
  layered.explorer.extra_layers_per_run = [] {
    return core::LayerStackFactory([](int, int) {
      return std::vector<std::unique_ptr<mpism::ToolLayer>>();
    });
  };
  SweepOptions threaded = options;
  threaded.explorer.sched = sched_named("thread");
  for (const SweepOptions* variant : {&layered, &threaded}) {
    const SweepResult result =
        sweep::run_sweep(*variant, workloads::fig3_benign);
    ASSERT_TRUE(result.error.empty()) << result.error;
    // Four abort/error pairs and four delay/flaky plans, none observed.
    EXPECT_EQ(result.executed, 8u);
    EXPECT_EQ(result.shared, 4u);
    if (variant == &layered) {
      EXPECT_EQ(sweep::format_sweep_report_json(layered, result),
                sweep::format_sweep_report_json(options, plain));
    }
  }
}

// Sharing is between plans with one effect, not a discount on error
// plans: a sweep of error plans alone runs every one of them.
TEST(Sweep, ErrorPlansAloneShareNothing) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.kinds = SweepKinds{false, true, false, false};  // error only
  const SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_EQ(result.records.size(), 4u);
  EXPECT_EQ(result.executed, 4u);
  EXPECT_EQ(result.shared, 0u);
}

// A small fault sweep of mini-ADLB (blocking sends and receives, a
// wildcard server loop, separate-message piggyback): its report names
// every fault point by the op index the fault layer counts at hook
// entry, so a changed hook sequence shifts the points and the bytes.
// The digest was recorded at the commit before blocking calls stopped
// allocating request records.
TEST(Sweep, AdlbReportMatchesThePinnedDigest) {
  constexpr std::uint64_t kPinnedDigest = 0x2d4433b3efa96aadull;
  SweepOptions options = sweep_options(4, "adlb");
  options.budget = 100;  // every planned point, delay and flaky included
  options.seed = 5;
  options.explorer.transport = piggyback::TransportKind::kSeparateMessage;
  const auto program = [](mpism::Proc& p) {
    workloads::adlb::Config config;
    config.roots_per_server = 3;
    workloads::adlb::run(p, config);
  };
  const SweepResult result = sweep::run_sweep(options, program);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.records.size(), 100u);
  const std::string report = sweep::format_sweep_report_json(options, result);
  const std::uint64_t digest = digest_step(kDigestSeed, report);
  EXPECT_EQ(digest, kPinnedDigest)
      << std::hex << "sweep report drifted: digest 0x" << digest << "\n"
      << report;
}

TEST(Sweep, KillAtKThenResumeReproducesTheUninterruptedReport) {
  const std::string journal_path = temp_path("kill_resume");
  std::remove(journal_path.c_str());

  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 12;
  options.seed = 3;

  // Reference: the uninterrupted sweep (no journal involved).
  const SweepResult reference = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(reference.error.empty()) << reference.error;
  const std::string reference_report =
      sweep::format_sweep_report_json(options, reference);
  // Four abort/error pairs, one campaign each, and four delay/flaky
  // plans observed on one walk: 4 campaigns for 12 records.
  ASSERT_EQ(reference.records.size(), 12u);
  EXPECT_EQ(reference.executed, 4u);
  EXPECT_EQ(reference.shared, 8u);

  // Kill at K: cancel fires after the third completed plan, exactly as
  // the SIGINT bridge would. Plans run on two worker processes; answers
  // landing after the cancel are not recorded. The first two in flight
  // are the aborts of two pairs, and the first answer's error copy lands
  // with it, so the three are one whole pair and one lone abort.
  constexpr std::uint64_t kKill = 3;
  SweepOptions killed = options;
  killed.workers = 2;
  killed.worker_argv = plan_worker_argv(options, "clean");
  killed.journal_path = journal_path;
  killed.cancel = std::make_shared<mpism::CancelSource>();
  std::uint64_t completed = 0;
  auto cancel = killed.cancel;
  killed.on_plan_done = [&completed, cancel](const PlanRecord&) {
    if (++completed == kKill) cancel->cancel("test kill");
  };
  const SweepResult interrupted =
      sweep::run_sweep(killed, workloads::fig3_benign);
  ASSERT_TRUE(interrupted.error.empty()) << interrupted.error;
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.records.size(), kKill);
  EXPECT_EQ(sweep::sweep_exit_code(interrupted), 2);

  // Resume: completed plans come from the journal (provably not
  // re-executed — the executed/shared/resumed counters split exactly:
  // the lone abort's error is shared from the journal, two pairs run,
  // and the four delay/flaky plans are observed) and the final report
  // is byte-identical to the uninterrupted run.
  SweepOptions resumed = options;
  resumed.journal_path = journal_path;
  resumed.resume = true;
  resumed.workers = 3;  // resume may change execution knobs freely
  resumed.worker_argv = plan_worker_argv(options, "clean");
  const SweepResult finished = sweep::run_sweep(resumed, workloads::fig3_benign);
  ASSERT_TRUE(finished.error.empty()) << finished.error;
  EXPECT_FALSE(finished.interrupted);
  EXPECT_EQ(finished.resumed, kKill);
  EXPECT_EQ(finished.executed, 2u);
  EXPECT_EQ(finished.shared, 7u);
  EXPECT_EQ(finished.records.size(), reference.records.size());
  EXPECT_EQ(sweep::format_sweep_report_json(resumed, finished),
            reference_report);

  // Resuming a finished sweep re-runs nothing at all.
  const SweepResult idempotent =
      sweep::run_sweep(resumed, workloads::fig3_benign);
  ASSERT_TRUE(idempotent.error.empty()) << idempotent.error;
  EXPECT_EQ(idempotent.executed, 0u);
  EXPECT_EQ(idempotent.shared, 0u);
  EXPECT_EQ(idempotent.resumed, reference.records.size());
  EXPECT_EQ(sweep::format_sweep_report_json(resumed, idempotent),
            reference_report);
  std::remove(journal_path.c_str());
}

// A serial sweep records and journals each plan of a batch as its walk
// ends, not when the batch does: a cancel that lands inside the batch,
// after its first walk ended, keeps the plans whose walks ended before
// it, each the uninterrupted sweep's record, and a resume completes the
// uninterrupted report.
TEST(Sweep, ACancelInsideABatchKeepsThePlansItFinished) {
  const std::string journal_path = temp_path("cancel_in_batch");
  std::remove(journal_path.c_str());
  SweepOptions options = sweep_options(4, "adlb");
  options.budget = 512;
  options.kinds = SweepKinds{true, false, false, false};  // one batch

  // Rank 0 starts each replay's program once; the kill lands at the
  // start of replay `kill_at`.
  std::uint64_t replays = 0;
  std::uint64_t kill_at = 0;
  std::shared_ptr<mpism::CancelSource> cancel;
  const mpism::ProgramFn program = [&](mpism::Proc& p) {
    if (p.rank() == 0 && ++replays == kill_at) cancel->cancel("test kill");
    workloads::adlb::run(p, {});
  };

  std::uint64_t first_done_at = 0;
  options.on_plan_done = [&](const PlanRecord&) {
    if (first_done_at == 0) first_done_at = replays;
  };
  const SweepResult reference = sweep::run_sweep(options, program);
  ASSERT_TRUE(reference.error.empty()) << reference.error;
  ASSERT_EQ(reference.records.size(), reference.planned);
  ASSERT_GT(first_done_at, 0u);
  const std::string reference_report =
      sweep::format_sweep_report_json(options, reference);
  options.on_plan_done = nullptr;

  SweepOptions killed = options;
  killed.journal_path = journal_path;
  killed.cancel = cancel = std::make_shared<mpism::CancelSource>();
  replays = 0;
  kill_at = first_done_at + 1;
  const SweepResult interrupted = sweep::run_sweep(killed, program);
  ASSERT_TRUE(interrupted.error.empty()) << interrupted.error;
  EXPECT_TRUE(interrupted.interrupted);
  ASSERT_FALSE(interrupted.records.empty());
  EXPECT_LT(interrupted.records.size(), reference.planned);
  for (const PlanRecord& record : interrupted.records) {
    expect_same_record(record, reference.records[record.index]);
  }

  SweepOptions resumed = options;
  resumed.journal_path = journal_path;
  resumed.resume = true;
  kill_at = 0;
  const SweepResult finished = sweep::run_sweep(resumed, program);
  ASSERT_TRUE(finished.error.empty()) << finished.error;
  EXPECT_FALSE(finished.interrupted);
  EXPECT_EQ(finished.resumed, interrupted.records.size());
  EXPECT_EQ(sweep::format_sweep_report_json(resumed, finished),
            reference_report);
  std::remove(journal_path.c_str());
}

// A worker SIGKILLed in the middle of a plan loses only that plan's
// campaign: the plan is requeued to another worker and every plan is
// recorded exactly once, so the report is the serial sweep's.
TEST(SweepWorkers, KilledWorkersPlanIsRequeuedAndEveryPlanRecordedOnce) {
  const std::string marker = temp_path("die_once");
  std::remove(marker.c_str());
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 12;
  options.seed = 3;
  const SweepResult serial = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(serial.error.empty()) << serial.error;

  SweepOptions pooled = options;
  pooled.workers = 2;
  pooled.worker_argv = plan_worker_argv(options, "die-once:" + marker);
  std::vector<std::uint64_t> recorded;
  pooled.on_plan_done = [&recorded](const PlanRecord& record) {
    recorded.push_back(record.index);
  };
  const SweepResult result = sweep::run_sweep(pooled, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(read_file(marker, nullptr).has_value());  // a worker died
  EXPECT_EQ(result.requeued, 1u);
  std::sort(recorded.begin(), recorded.end());
  std::vector<std::uint64_t> every(serial.records.size());
  std::iota(every.begin(), every.end(), 0);
  EXPECT_EQ(recorded, every);
  EXPECT_EQ(serial.executed, 4u);
  EXPECT_EQ(serial.shared, 8u);
  EXPECT_EQ(result.executed, 4u);
  EXPECT_EQ(result.shared, 8u);
  EXPECT_EQ(sweep::format_sweep_report_json(pooled, result),
            sweep::format_sweep_report_json(options, serial));
  std::remove(marker.c_str());
}

// A plan whose every worker dies is given up after the respawn limit:
// it becomes a sweep-error record (a coverage hole, exit 2), and the
// sweep goes on with the next plan.
TEST(SweepWorkers, PlanWhoseWorkerAlwaysDiesBecomesSweepError) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 2;
  options.workers = 2;
  options.worker_argv = plan_worker_argv(options, "always-die");
  const SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_EQ(result.records.size(), 2u);
  for (const PlanRecord& record : result.records) {
    EXPECT_EQ(record.verdict, Verdict::kSweepError) << record.spec;
    EXPECT_EQ(record.latent_error,
              "its worker died " +
                  std::to_string(dist::kMaxShardRespawns + 1) + " times");
  }
  EXPECT_EQ(result.requeued, 2u * dist::kMaxShardRespawns);
  // The abort@0:1 campaign is a sweep-error, which shares nothing, so its
  // pair's error@0:1 is sent out as a plan of its own.
  EXPECT_EQ(result.executed, 2u);
  EXPECT_EQ(result.shared, 0u);
  EXPECT_EQ(sweep::sweep_exit_code(result), 2);
}

TEST(Sweep, ResumeRefusesAJournalFromADifferentSweep) {
  const std::string journal_path = temp_path("foreign");
  std::remove(journal_path.c_str());

  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 4;
  options.journal_path = journal_path;
  const SweepResult first = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(first.error.empty()) << first.error;

  SweepOptions other = options;
  other.seed = 99;  // different enumeration → different fingerprint
  other.resume = true;
  const SweepResult refused = sweep::run_sweep(other, workloads::fig3_benign);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_NE(refused.error.find("mismatch"), std::string::npos) << refused.error;
  EXPECT_EQ(sweep::sweep_exit_code(refused), 3);
  std::remove(journal_path.c_str());
}

TEST(Sweep, SummaryCarriesTheMatrixAndTheResumeAccounting) {
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = 8;
  const SweepResult result = sweep::run_sweep(options, workloads::fig3_benign);
  ASSERT_TRUE(result.error.empty()) << result.error;
  const std::string summary = sweep::format_sweep_summary(options, result);
  EXPECT_NE(summary.find("fault sweep: fig3-benign"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("plans: 8 completed"), std::string::npos) << summary;
  EXPECT_NE(summary.find("4 executed, 4 shared, 0 resumed"),
            std::string::npos)
      << summary;
  EXPECT_EQ(summary.find("INTERRUPTED"), std::string::npos) << summary;
}

}  // namespace

/// A plan worker for the tests above: `<exe> --dampi-sweep-worker
/// <budget> <seed> <mode>` followed by the worker flags the pool
/// appends (see plan_worker_argv).
int sweep_worker_main(int argc, char** argv) {
  if (argc < 5) return 2;
  SweepOptions options = sweep_options(3, "fig3-benign");
  options.budget = std::strtoull(argv[2], nullptr, 10);
  options.seed = std::strtoull(argv[3], nullptr, 10);
  const std::string mode = argv[4];
  std::string socket_spec;
  int worker_id = -1;
  for (int i = 5; i + 1 < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--worker-id") worker_id = std::atoi(argv[i + 1]);
    if (arg == "--coordinator-socket") socket_spec = argv[i + 1];
  }
  mpism::ProgramFn program = workloads::fig3_benign;
  if (mode == "always-die") {
    program = [](mpism::Proc&) { ::raise(SIGKILL); };
  } else if (mode.rfind("die-once:", 0) == 0) {
    // The second rank body this process runs is inside a batch of plans,
    // and some worker runs one: the sweep's three batches (one per fault
    // rank) outnumber its two workers, and every replay starts at least
    // one rank body. Only the worker that creates the marker dies there.
    program = [marker = mode.substr(9)](mpism::Proc& p) {
      static int bodies = 0;
      if (++bodies == 2 &&
          ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0600) >= 0) {
        ::raise(SIGKILL);
      }
      workloads::fig3_benign(p);
    };
  }
  return sweep::run_sweep_worker(socket_spec, worker_id, options, program);
}

}  // namespace dampi::test

// Custom main (overrides gtest_main): a first argument of
// --dampi-sweep-worker turns this binary into a plan worker instead of
// running the test suite.
int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "--dampi-sweep-worker") {
    return dampi::test::sweep_worker_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
