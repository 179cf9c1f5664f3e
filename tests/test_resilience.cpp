// Resilience: per-run watchdogs (wall / vtime / op budgets) under both
// rank schedulers, external cancellation, deterministic fault injection,
// retry/quarantine accounting, and crash-safe checkpoint/resume.
//
// The central fixture is workloads::livelock — a program that never
// terminates yet always has a live (spinning) rank, which defeats the
// blocked-count deadlock detector by construction. Every test that runs
// it MUST arm a budget or a cancel source.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/report_format.hpp"
#include "mpism/cancel.hpp"
#include "mpism/fault.hpp"
#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::BugRecord;
using core::Checkpoint;
using core::Explorer;
using core::ExplorerOptions;
using core::ExploreResult;
using core::Schedule;
using mpism::CancelSource;
using mpism::FaultPlan;

mpism::SchedOptions sched_named(const char* spec) {
  mpism::SchedOptions sched;
  EXPECT_TRUE(mpism::parse_sched_spec(spec, &sched)) << spec;
  return sched;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "dampi_resil_" + name;
}

// --- Engine watchdogs ------------------------------------------------------

TEST(Watchdog, WallDeadlineKillsLivelockUnderThreadSched) {
  RunOptions opts;
  opts.nprocs = 2;
  opts.sched = sched_named("thread");
  opts.max_run_wall_seconds = 0.5;
  const auto report = run_program(std::move(opts), workloads::livelock);
  EXPECT_TRUE(report.timed_out);
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.deadlocked);
  EXPECT_FALSE(report.cancelled);
  EXPECT_NE(report.stop_reason.find("wall deadline"), std::string::npos)
      << report.stop_reason;
}

TEST(Watchdog, WallDeadlineKillsLivelockUnderCoopSched) {
  RunOptions opts;
  opts.nprocs = 2;
  opts.sched = sched_named("coop");
  opts.max_run_wall_seconds = 0.5;
  const auto report = run_program(std::move(opts), workloads::livelock);
  EXPECT_TRUE(report.timed_out);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.stop_reason.find("wall deadline"), std::string::npos);
}

TEST(Watchdog, OpBudgetExpires) {
  RunOptions opts;
  opts.nprocs = 2;
  opts.max_ops = 200;  // the spinner alone burns this in milliseconds
  const auto report = run_program(std::move(opts), workloads::livelock);
  EXPECT_TRUE(report.timed_out);
  EXPECT_NE(report.stop_reason.find("op budget"), std::string::npos);
}

TEST(Watchdog, BudgetsDoNotMisfireOnRealDeadlocks) {
  // A genuine deadlock inside a generous wall budget stays a deadlock:
  // timed_out / deadlocked / cancelled are mutually exclusive verdicts.
  RunOptions opts;
  opts.nprocs = 2;
  opts.max_run_wall_seconds = 60.0;
  const auto report = run_program(std::move(opts), workloads::simple_deadlock);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_FALSE(report.timed_out);
  EXPECT_FALSE(report.cancelled);
}

TEST(Cancel, ExternalCancelUnwindsAnInFlightRun) {
  RunOptions opts;
  opts.nprocs = 2;
  opts.cancel = std::make_shared<CancelSource>();
  auto cancel = opts.cancel;
  std::thread firer([cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    cancel->cancel("test cancel");
  });
  const auto report = run_program(std::move(opts), workloads::livelock);
  firer.join();
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(report.stop_reason, "test cancel");
}

TEST(Cancel, AlreadyFiredSourceAbortsTheRunImmediately) {
  RunOptions opts;
  opts.nprocs = 2;
  opts.cancel = std::make_shared<CancelSource>();
  opts.cancel->cancel("fired before the run");
  // Even the livelock returns promptly: the subscription fires on
  // registration when the source has already been cancelled.
  const auto report = run_program(std::move(opts), workloads::livelock);
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.completed);
}

// --- Fault injection -------------------------------------------------------

TEST(Fault, SpecParsesAndFormatsCanonically) {
  // Points are canonicalized at parse time — sorted by (rank, op, kind)
  // — so the round-tripped spec is the canonical order, not the input
  // order.
  std::string error;
  auto plan = mpism::parse_fault_plan(
      "abort@1:3,error@0:2,delay@2:5:1500,flaky@1:1:2", &error);
  ASSERT_NE(plan, nullptr) << error;
  EXPECT_EQ(mpism::fault_spec(*plan),
            "error@0:2,flaky@1:1:2,abort@1:3,delay@2:5:1500");
}

TEST(Fault, SpellingOrderDoesNotChangeTheCanonicalSpec) {
  // Identical plans in different spellings must fingerprint (and
  // journal-dedup) identically: checkpoint fingerprints embed
  // fault_spec verbatim.
  std::string error;
  auto a = mpism::parse_fault_plan("abort@1:3,error@0:2", &error);
  ASSERT_NE(a, nullptr) << error;
  auto b = mpism::parse_fault_plan("error@0:2,abort@1:3", &error);
  ASSERT_NE(b, nullptr) << error;
  EXPECT_EQ(mpism::fault_spec(*a), mpism::fault_spec(*b));
}

TEST(Fault, BadSpecsAreRejectedWithAMessage) {
  for (const char* bad :
       {"", "abort", "abort@", "abort@1", "abort@x:1", "abort@1:0",
        "delay@1:1", "flaky@1:1:0", "abort@1:1:9", "explode@1:1",
        "abort@1:1,,abort@0:1",
        // Duplicate (rank, op, kind) points — including ones that only
        // differ in their parameter, which would silently double-fire.
        "abort@1:1,abort@1:1", "delay@0:2:100,delay@0:2:900",
        "flaky@2:3:1,flaky@2:3:2"}) {
    std::string error;
    EXPECT_EQ(mpism::parse_fault_plan(bad, &error), nullptr) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  std::string error;
  EXPECT_EQ(mpism::parse_fault_plan("abort@1:1,error@0:2,abort@1:1", &error),
            nullptr);
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_NE(error.find("abort@1:1"), std::string::npos) << error;
}

TEST(Fault, OutOfRangeRanksAreCaughtByValidation) {
  std::string error;
  auto plan = mpism::parse_fault_plan("abort@0:1,error@4:2", &error);
  ASSERT_NE(plan, nullptr) << error;
  EXPECT_EQ(mpism::validate_fault_plan(*plan, 5), "");
  const std::string diagnostic = mpism::validate_fault_plan(*plan, 4);
  EXPECT_NE(diagnostic.find("error@4:2"), std::string::npos) << diagnostic;
  EXPECT_NE(diagnostic.find("out of range"), std::string::npos) << diagnostic;
}

TEST(Fault, SeedFiresIsAMonotoneMerge) {
  std::string error;
  auto plan = mpism::parse_fault_plan("flaky@0:1:3,abort@1:2", &error);
  ASSERT_NE(plan, nullptr) << error;
  // Canonical order: flaky@0:1:3 first, abort@1:2 second.
  plan->seed_fires({2, 0});
  EXPECT_EQ(plan->fires(0), 2u);
  EXPECT_EQ(plan->fires(1), 0u);
  // Seeding never re-arms a point: lower counters are ignored.
  plan->seed_fires({1, 1});
  EXPECT_EQ(plan->fires(0), 2u);
  EXPECT_EQ(plan->fires(1), 1u);
  // A size-mismatched seed came from a different plan; it is ignored.
  plan->seed_fires({9, 9, 9});
  EXPECT_EQ(plan->fires(0), 2u);
  // Third arm of flaky@0:1:3 still fires (2 < 3), fourth does not.
  EXPECT_TRUE(plan->should_fire(0));
  EXPECT_FALSE(plan->should_fire(0));
}

TEST(Fault, InjectedAbortFailsTheRunAndCleanRerunsAreUnaffected) {
  ExplorerOptions options = explorer_options(3);
  const ExploreResult baseline =
      Explorer(options).explore(workloads::fig3_benign);
  EXPECT_FALSE(baseline.found_bug());

  ExplorerOptions faulted = explorer_options(3);
  std::string error;
  faulted.fault = mpism::parse_fault_plan("abort@1:1", &error);
  ASSERT_NE(faulted.fault, nullptr) << error;
  const ExploreResult result =
      Explorer(faulted).explore(workloads::fig3_benign);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.bugs.front().kind, BugRecord::Kind::kError);
  ASSERT_FALSE(result.bugs.front().errors.empty());
  EXPECT_NE(result.bugs.front().errors.front().message.find("fault injected"),
            std::string::npos);

  // The injection is a tool layer, not a program change: removing the
  // plan restores the baseline outcome exactly.
  const ExploreResult rerun =
      Explorer(explorer_options(3)).explore(workloads::fig3_benign);
  EXPECT_EQ(rerun.interleavings, baseline.interleavings);
  EXPECT_FALSE(rerun.found_bug());
}

TEST(Fault, DelayChargesVirtualTimeDeterministically) {
  ExplorerOptions options = explorer_options(3);
  options.max_interleavings = 1;
  const ExploreResult baseline =
      Explorer(options).explore(workloads::fig3_benign);

  ExplorerOptions delayed = explorer_options(3);
  delayed.max_interleavings = 1;
  std::string error;
  delayed.fault = mpism::parse_fault_plan("delay@0:1:5000", &error);
  ASSERT_NE(delayed.fault, nullptr) << error;
  const ExploreResult result =
      Explorer(delayed).explore(workloads::fig3_benign);
  EXPECT_FALSE(result.found_bug());
  // The delay lands on rank 0's first op; the run's critical path must
  // now carry it (the baseline fixture finishes well under 5 ms).
  EXPECT_GE(result.first_run_vtime_us, 5000.0);
  EXPECT_GT(result.first_run_vtime_us, baseline.first_run_vtime_us);
}

TEST(Fault, FlakyFaultIsHealedByRetries) {
  // flaky@1:1:2 fires twice campaign-wide; with three retries allowed
  // the third attempt of the discovery run goes through and the
  // exploration ends clean — the retry counter records the recovery.
  ExplorerOptions options = explorer_options(3);
  std::string error;
  options.fault = mpism::parse_fault_plan("flaky@1:1:2", &error);
  ASSERT_NE(options.fault, nullptr) << error;
  options.max_retries = 3;
  const ExploreResult result =
      Explorer(options).explore(workloads::fig3_benign);
  EXPECT_EQ(result.retries, 2u);
  EXPECT_FALSE(result.found_bug());
  EXPECT_EQ(result.quarantined, 0u);
}

// --- Explorer-level watchdog / retry / quarantine --------------------------

TEST(ExplorerResilience, LivelockBecomesAHangVerdictUnderEveryConfig) {
  for (const char* sched : {"thread", "coop"}) {
    ExplorerOptions options = explorer_options(2);
    options.sched = sched_named(sched);
    options.run_deadline_seconds = 1.0;
    options.max_interleavings = 4;
    const ExploreResult result =
        Explorer(options).explore(workloads::livelock);
    ASSERT_TRUE(result.found_bug()) << sched;
    EXPECT_EQ(result.bugs.front().kind, BugRecord::Kind::kHang);
    EXPECT_NE(result.bugs.front().deadlock_detail.find("deadline"),
              std::string::npos);
    EXPECT_GE(result.timeouts, 1u);
  }
}

TEST(ExplorerResilience, HangScheduleReproducesTheHang) {
  ExplorerOptions options = explorer_options(2);
  options.run_deadline_seconds = 0.5;
  const ExploreResult result = Explorer(options).explore(workloads::livelock);
  ASSERT_TRUE(result.found_bug());
  ASSERT_EQ(result.bugs.front().kind, BugRecord::Kind::kHang);
  const auto rerun = core::run_guided_once(options, result.bugs.front().schedule,
                                           workloads::livelock);
  EXPECT_TRUE(rerun.report.timed_out);
}

TEST(ExplorerResilience, GlobalWallBudgetCancelsAnInFlightRun) {
  // No per-run deadline: only the campaign budget can end this. Before
  // this fix the budget was only checked *between* runs, so a wedged
  // discovery run hung the explorer forever.
  ExplorerOptions options = explorer_options(2);
  options.max_wall_seconds = 0.5;
  const auto t0 = std::chrono::steady_clock::now();
  const ExploreResult result = Explorer(options).explore(workloads::livelock);
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(result.time_budget_exhausted);
  EXPECT_FALSE(result.interrupted);
  EXPECT_LT(took, 30.0);
  EXPECT_EQ(result.interleavings, 1u);  // partial campaign still reported
}

TEST(ExplorerResilience, ExternalCancelMarksTheWalkInterrupted) {
  ExplorerOptions options = explorer_options(2);
  options.cancel = std::make_shared<CancelSource>();
  auto cancel = options.cancel;
  std::thread firer([cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    cancel->cancel("SIGINT");
  });
  const ExploreResult result = Explorer(options).explore(workloads::livelock);
  firer.join();
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.time_budget_exhausted);
}

TEST(ExplorerResilience, RetriesDoNotChangeTheOutcomeSet) {
  // fig3's failing interleaving fails deterministically: the retry burns
  // attempts, the verdict and the walk shape stay identical, and the
  // still-failing subtree root is quarantined. Pinned to the coop
  // scheduler so the discovery run (and hence which interleaving fails)
  // is deterministic.
  ExplorerOptions options = explorer_options(3);
  options.sched = sched_named("coop");
  const ExploreResult baseline =
      Explorer(options).explore(workloads::fig3_wildcard_bug);
  ASSERT_TRUE(baseline.found_bug());
  ASSERT_GE(baseline.interleavings, 2u);  // benign self-run, failing flip

  ExplorerOptions retried_options = explorer_options(3);
  retried_options.sched = sched_named("coop");
  retried_options.max_retries = 1;
  const ExploreResult retried =
      Explorer(retried_options).explore(workloads::fig3_wildcard_bug);
  EXPECT_EQ(retried.interleavings, baseline.interleavings);
  ASSERT_EQ(retried.bugs.size(), baseline.bugs.size());
  EXPECT_EQ(retried.bugs.front().kind, baseline.bugs.front().kind);
  EXPECT_EQ(retried.bugs.front().interleaving,
            baseline.bugs.front().interleaving);
  EXPECT_GE(retried.retries, 1u);
  EXPECT_GE(retried.quarantined, 1u);
}

// --- Checkpoint / resume ---------------------------------------------------

Checkpoint sample_checkpoint() {
  Checkpoint cp;
  cp.fingerprint = "sample";
  cp.interleavings = 7;
  cp.retries = 1;
  cp.timeouts = 2;
  cp.quarantined = 3;
  cp.divergences = 4;
  cp.prefix_mismatches = 5;
  core::DfsFrame frame;
  frame.key.rank = 1;
  frame.key.nd_index = 3;
  frame.lc = 9;
  frame.taken_src = 2;
  frame.untried = {0, 2};
  frame.seen = {0, 1, 2};
  frame.record_alts = false;
  frame.mix_budget = 4;
  cp.frames.push_back(frame);
  BugRecord bug;
  bug.kind = BugRecord::Kind::kHang;
  bug.interleaving = 5;
  bug.deadlock_detail = "line one\nline two";
  bug.errors.push_back({1, "rank died \\ badly"});
  bug.schedule.forced[{1, 3}] = 0;
  cp.bugs.push_back(bug);
  cp.unsafe_alerts.push_back("alert with\nnewline");
  cp.fault_fires = {2, 0, 1};
  return cp;
}

TEST(Checkpoint, SerializeParseRoundTrip) {
  const Checkpoint cp = sample_checkpoint();
  std::string error;
  const auto parsed =
      core::parse_checkpoint(core::serialize_checkpoint(cp), "sample", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->fingerprint, cp.fingerprint);
  EXPECT_EQ(parsed->interleavings, cp.interleavings);
  EXPECT_EQ(parsed->retries, cp.retries);
  EXPECT_EQ(parsed->timeouts, cp.timeouts);
  EXPECT_EQ(parsed->quarantined, cp.quarantined);
  EXPECT_EQ(parsed->divergences, cp.divergences);
  EXPECT_EQ(parsed->prefix_mismatches, cp.prefix_mismatches);
  ASSERT_EQ(parsed->frames.size(), 1u);
  EXPECT_EQ(parsed->frames[0].key.rank, 1);
  EXPECT_EQ(parsed->frames[0].key.nd_index, 3u);
  EXPECT_EQ(parsed->frames[0].lc, 9u);
  EXPECT_EQ(parsed->frames[0].taken_src, 2);
  EXPECT_EQ(parsed->frames[0].untried, (std::vector<mpism::Rank>{0, 2}));
  EXPECT_EQ(parsed->frames[0].seen, (std::set<mpism::Rank>{0, 1, 2}));
  EXPECT_FALSE(parsed->frames[0].record_alts);
  EXPECT_EQ(parsed->frames[0].mix_budget, 4);
  ASSERT_EQ(parsed->bugs.size(), 1u);
  EXPECT_EQ(parsed->bugs[0].kind, BugRecord::Kind::kHang);
  EXPECT_EQ(parsed->bugs[0].deadlock_detail, "line one\nline two");
  ASSERT_EQ(parsed->bugs[0].errors.size(), 1u);
  EXPECT_EQ(parsed->bugs[0].errors[0].message, "rank died \\ badly");
  EXPECT_EQ(parsed->bugs[0].schedule.forced.size(), 1u);
  ASSERT_EQ(parsed->unsafe_alerts.size(), 1u);
  EXPECT_EQ(parsed->unsafe_alerts[0], "alert with\nnewline");
  EXPECT_EQ(parsed->fault_fires, (std::vector<std::uint64_t>{2, 0, 1}));
}

TEST(Checkpoint, LoadRefusesCorruptOrForeignFiles) {
  const std::string good = core::serialize_checkpoint(sample_checkpoint());
  std::string error;

  // Fingerprint from a different configuration.
  EXPECT_FALSE(core::parse_checkpoint(good, "other", &error).has_value());
  EXPECT_NE(error.find("mismatch"), std::string::npos);

  // Not a checkpoint at all (decision-file-style header discipline).
  EXPECT_FALSE(
      core::parse_checkpoint("# some other file\nend\n", "", &error)
          .has_value());

  // Truncated: a crash mid-write never survives the atomic rename, but a
  // hand-edited file might.
  const std::string truncated = good.substr(0, good.size() - 4);
  EXPECT_FALSE(core::parse_checkpoint(truncated, "", &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos);

  // Structural corruption.
  EXPECT_FALSE(core::parse_checkpoint(
                   "# dampi-checkpoint v1\noptions x\nframe 0 bad\nend\n", "",
                   &error)
                   .has_value());
  EXPECT_FALSE(
      core::parse_checkpoint(good + "trailing garbage\n", "", &error)
          .has_value());

  // Count prefixes larger than the tokens on their line used to size a
  // vector and throw std::length_error; negative counters used to wrap.
  for (const char* bad : {
           "ffires 4000000000000000000",
           "frame 0 0 0 0 1 0 u 4000000000000000000 1 s 0",
           "frame 0 0 0 0 1 0 u 0 s 0 v 4000000000000000000 1",
           "interleavings -1",
           "counters -5 0 0 0 0",
       }) {
    const std::string text = std::string(core::kCheckpointHeader) +
                             "\noptions x\n" + bad + "\nend\n";
    EXPECT_FALSE(core::parse_checkpoint(text, "", &error).has_value()) << bad;
    EXPECT_NE(error.find("line 3:"), std::string::npos) << bad << ": " << error;
  }
}

// Rank bounds are the loaders' job, since the parser cannot know
// nprocs: a frame naming rank 9 used to corrupt per-rank tables and
// abort, and an untried source of 99 used to be forced and reported as
// a false bug.
TEST(Checkpoint, ValidateRejectsRanksOutsideTheCampaign) {
  const Checkpoint good = sample_checkpoint();
  std::string error;
  EXPECT_TRUE(core::validate_checkpoint(good, 3, &error)) << error;
  EXPECT_FALSE(core::validate_checkpoint(good, 2, &error));

  const auto rejects = [&good](const auto& mutate, const char* what) {
    Checkpoint cp = good;
    mutate(cp);
    std::string why;
    EXPECT_FALSE(core::validate_checkpoint(cp, 3, &why)) << what;
    EXPECT_NE(why.find(what), std::string::npos) << why;
  };
  rejects([](Checkpoint& cp) { cp.frames[0].key.rank = 9; }, "rank 9");
  rejects([](Checkpoint& cp) { cp.frames[0].taken_src = 3; },
          "taken source 3");
  rejects([](Checkpoint& cp) { cp.frames[0].untried.push_back(99); },
          "untried source 99");
  rejects([](Checkpoint& cp) { cp.frames[0].seen.insert(-2); },
          "seen source -2");
  rejects([](Checkpoint& cp) { cp.frames[0].sleep.insert(5); },
          "sleep source 5");
  rejects(
      [](Checkpoint& cp) {
        cp.pending_sleep.push_back(cp.frames[0]);
        cp.pending_sleep[0].key.rank = -1;
      },
      "pframe 1: rank -1");

  // A taken source of -1 marks an epoch the creating run never
  // completed; extend_stack records it as taken and seen.
  Checkpoint incomplete = good;
  incomplete.frames[0].taken_src = -1;
  incomplete.frames[0].seen.insert(-1);
  EXPECT_TRUE(core::validate_checkpoint(incomplete, 3, &error)) << error;
}

TEST(Checkpoint, KillAtKThenResumeMatchesTheUninterruptedWalk) {
  auto base_options = [] {
    ExplorerOptions options = explorer_options(3);
    // Pin the deterministic scheduler for equality.
    options.sched = sched_named("coop");
    return options;
  };
  const auto fan_in = [](mpism::Proc& p) { workloads::fan_in_rounds(p, 3); };

  const ExploreResult baseline = Explorer(base_options()).explore(fan_in);
  ASSERT_GE(baseline.interleavings, 4u);
  const std::uint64_t kill_at = baseline.interleavings / 2;

  // Interrupted walk: fire the campaign cancel from the run observer
  // after K judged runs, journaling every interleaving.
  const std::string path = temp_path("resume.ckpt");
  ExplorerOptions interrupted_options = base_options();
  interrupted_options.checkpoint_path = path;
  interrupted_options.checkpoint_interval = 1;
  interrupted_options.cancel = std::make_shared<CancelSource>();
  std::uint64_t runs = 0;
  auto cancel = interrupted_options.cancel;
  const ExploreResult partial = Explorer(interrupted_options)
                                    .explore(fan_in, [&](auto&, auto&, auto&) {
                                      if (++runs == kill_at) {
                                        cancel->cancel("kill -INT");
                                      }
                                    });
  EXPECT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.interleavings, kill_at);
  EXPECT_GE(partial.checkpoint_writes, kill_at);

  // Resumed walk: same semantics-bearing options, frontier from disk.
  ExplorerOptions resume_options = base_options();
  resume_options.checkpoint_path = path;
  std::string error;
  auto cp = core::load_checkpoint(
      path, core::options_fingerprint(resume_options), &error);
  ASSERT_TRUE(cp.has_value()) << error;
  resume_options.resume_from = std::make_shared<Checkpoint>(std::move(*cp));
  const ExploreResult resumed = Explorer(resume_options).explore(fan_in);

  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.interleavings, baseline.interleavings);
  EXPECT_EQ(resumed.bugs.size(), baseline.bugs.size());
  EXPECT_EQ(resumed.unsafe_alerts, baseline.unsafe_alerts);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeFindsABugTheInterruptedWalkHadNotReached) {
  auto base_options = [] {
    ExplorerOptions options = explorer_options(3);
    options.sched = sched_named("coop");
    return options;
  };
  const ExploreResult baseline =
      Explorer(base_options()).explore(workloads::fig3_wildcard_bug);
  ASSERT_TRUE(baseline.found_bug());
  ASSERT_GE(baseline.interleavings, 2u);

  const std::string path = temp_path("bug.ckpt");
  ExplorerOptions interrupted_options = base_options();
  interrupted_options.checkpoint_path = path;
  interrupted_options.checkpoint_interval = 1;
  interrupted_options.cancel = std::make_shared<CancelSource>();
  auto cancel = interrupted_options.cancel;
  const ExploreResult partial =
      Explorer(interrupted_options)
          .explore(workloads::fig3_wildcard_bug,
                   [&](auto&, auto&, auto&) { cancel->cancel("^C"); });
  EXPECT_TRUE(partial.interrupted);
  EXPECT_FALSE(partial.found_bug());  // killed after the benign self-run

  ExplorerOptions resume_options = base_options();
  std::string error;
  auto cp = core::load_checkpoint(
      path, core::options_fingerprint(resume_options), &error);
  ASSERT_TRUE(cp.has_value()) << error;
  resume_options.resume_from = std::make_shared<Checkpoint>(std::move(*cp));
  const ExploreResult resumed =
      Explorer(resume_options).explore(workloads::fig3_wildcard_bug);
  ASSERT_TRUE(resumed.found_bug());
  EXPECT_EQ(resumed.interleavings, baseline.interleavings);
  EXPECT_EQ(resumed.bugs.front().kind, baseline.bugs.front().kind);
  EXPECT_EQ(resumed.bugs.front().interleaving,
            baseline.bugs.front().interleaving);
  std::remove(path.c_str());
}

// The matcher and the engine lock are not part of the options
// fingerprint, because their oracle modes walk bit-identically: a
// journal written on the linear matcher and the global lock resumes
// under the defaults and ends with the uninterrupted walk's report.
TEST(Checkpoint, OracleBackendJournalResumesUnderTheDefaults) {
  auto base_options = [] {
    ExplorerOptions options = explorer_options(3);
    options.sched = sched_named("coop");
    return options;
  };
  const ExploreResult baseline =
      Explorer(base_options()).explore(workloads::fig3_wildcard_bug);
  ASSERT_TRUE(baseline.found_bug());

  const std::string path = temp_path("oracle.ckpt");
  ExplorerOptions oracle = base_options();
  oracle.match = mpism::MatchKind::kLinear;
  oracle.engine_lock = mpism::EngineLockKind::kGlobal;
  oracle.checkpoint_path = path;
  oracle.checkpoint_interval = 1;
  oracle.cancel = std::make_shared<CancelSource>();
  auto cancel = oracle.cancel;
  const ExploreResult partial = Explorer(oracle).explore(
      workloads::fig3_wildcard_bug,
      [&](auto&, auto&, auto&) { cancel->cancel("^C"); });
  EXPECT_TRUE(partial.interrupted);

  ExplorerOptions resume_options = base_options();
  ASSERT_EQ(resume_options.match, mpism::MatchKind::kIndexed);
  ASSERT_EQ(resume_options.engine_lock, mpism::EngineLockKind::kSharded);
  std::string error;
  auto cp = core::load_checkpoint(
      path, core::options_fingerprint(resume_options), &error);
  ASSERT_TRUE(cp.has_value()) << error;
  resume_options.resume_from = std::make_shared<Checkpoint>(std::move(*cp));
  const ExploreResult resumed =
      Explorer(resume_options).explore(workloads::fig3_wildcard_bug);

  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.interleavings, baseline.interleavings);
  EXPECT_EQ(resumed.unsafe_alerts, baseline.unsafe_alerts);
  ASSERT_EQ(resumed.bugs.size(), baseline.bugs.size());
  for (std::size_t i = 0; i < baseline.bugs.size(); ++i) {
    EXPECT_EQ(resumed.bugs[i].interleaving, baseline.bugs[i].interleaving);
    EXPECT_EQ(core::format_bug(resumed.bugs[i]),
              core::format_bug(baseline.bugs[i]));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeRefusesAMismatchedConfiguration) {
  const std::string path = temp_path("mismatch.ckpt");
  ExplorerOptions options = explorer_options(3);
  options.checkpoint_path = path;
  Explorer(options).explore(workloads::fig3_benign);

  ExplorerOptions other = explorer_options(4);  // different nprocs
  std::string error;
  EXPECT_FALSE(core::load_checkpoint(path, core::options_fingerprint(other),
                                     &error)
                   .has_value());
  EXPECT_NE(error.find("mismatch"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dampi::test
