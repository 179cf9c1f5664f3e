// The cooperative run-to-block scheduler (ctest label `sched`):
//
//  - determinism: under --sched=coop the RunReport and the full
//    exploration result are bit-identical across repetitions, with no
//    initial_schedule pinning;
//  - differential: the coop and thread schedulers visit the same
//    *outcome set* on the paper's Fig. 3 / Fig. 4 patterns, both equal
//    to the brute-force reachability oracle;
//  - deadlock: the scheduler's stall scan reports genuine deadlocks and
//    never flags a runnable-but-unscheduled rank at large nprocs;
//  - scale: a 512-rank wavefront verification completes on one host
//    thread (ranks are fibers, not OS threads);
//  - defaults: default-constructed options select coop round-robin,
//    the indexed matcher, the sharded lock and sleep-set POR;
//  - fibers: stacks are reused across runs from the thread's cache
//    without moving any fingerprint, an overflowing rank dies at its
//    guard page, and floating-point modes stay per fiber.
//
// Fingerprints deliberately exclude wall-clock fields (wall_seconds,
// total_wall_seconds): they are host-dependent by design while
// everything else must not be.
// Doubles print as %a so "bit-identical" means bit-identical.
#include <gtest/gtest.h>

#include <cfenv>
#include <csignal>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/strutil.hpp"
#include "core/explorer.hpp"
#include "mpism/fault.hpp"
#include "obs/metrics.hpp"
#include "support/digest.hpp"
#include "support/reference_enumerator.hpp"
#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"
#include "workloads/wavefront.hpp"

namespace dampi::test {
namespace {

using dampi::strfmt;
using mpism::Bytes;
using mpism::pack;
using mpism::unpack;

mpism::SchedOptions coop(
    mpism::SchedPolicy pick = mpism::SchedPolicy::kRoundRobin,
    std::uint64_t seed = 1) {
  mpism::SchedOptions sched;
  sched.kind = mpism::SchedulerKind::kCoop;
  sched.pick = pick;
  sched.seed = seed;
  return sched;
}

mpism::SchedOptions thread_sched() {
  mpism::SchedOptions sched;
  sched.kind = mpism::SchedulerKind::kThread;
  return sched;
}

mpism::RunOptions run_options(int nprocs, const mpism::SchedOptions& sched) {
  mpism::RunOptions options;
  options.nprocs = nprocs;
  options.sched = sched;
  return options;
}

/// Every deterministic field of a RunReport, doubles in %a hex form.
/// wall_seconds is the one field that is *supposed* to vary.
std::string fingerprint(const mpism::RunReport& r) {
  std::string s = strfmt(
      "completed=%d deadlocked=%d vtime=%a comm_leaks=%d req_leaks=%llu "
      "msgs=%llu tool_msgs=%llu",
      r.completed ? 1 : 0, r.deadlocked ? 1 : 0, r.vtime_us, r.comm_leaks,
      static_cast<unsigned long long>(r.request_leaks),
      static_cast<unsigned long long>(r.messages_sent),
      static_cast<unsigned long long>(r.stats.tool_messages));
  s += "\ndeadlock_detail=" + r.deadlock_detail;
  for (const auto& e : r.errors) {
    s += strfmt("\nerror rank=%d ", e.rank) + e.message;
  }
  for (std::size_t c = 0; c < mpism::OpStats::kNumCategories; ++c) {
    s += strfmt("\ncat%zu:", c);
    for (const auto v : r.stats.counts[c]) {
      s += strfmt(" %llu", static_cast<unsigned long long>(v));
    }
  }
  return s;
}

std::string fingerprint(const core::Schedule& schedule) {
  std::string s;
  for (const auto& [key, src] : schedule.forced) {
    s += strfmt("(%d,%llu)->%d ", key.rank,
                static_cast<unsigned long long>(key.nd_index), src);
  }
  return s;
}

/// Everything an exploration decides, excluding wall time
/// (timing-dependent by design).
std::string fingerprint(const core::ExploreResult& r) {
  std::string s = strfmt(
      "interleavings=%llu recv_epochs=%llu probe_epochs=%llu pm=%llu "
      "first_vtime=%a total_vtime=%a div=%llu prefix=%llu budget=%d%d",
      static_cast<unsigned long long>(r.interleavings),
      static_cast<unsigned long long>(r.wildcard_recv_epochs),
      static_cast<unsigned long long>(r.wildcard_probe_epochs),
      static_cast<unsigned long long>(r.potential_matches_first_run),
      r.first_run_vtime_us, r.total_vtime_us,
      static_cast<unsigned long long>(r.divergences),
      static_cast<unsigned long long>(r.prefix_mismatches),
      r.interleaving_budget_exhausted ? 1 : 0,
      r.time_budget_exhausted ? 1 : 0);
  s += "\nfirst: " + fingerprint(r.first_report);
  for (const auto& b : r.bugs) {
    s += strfmt("\nbug kind=%d run=%llu sched=", static_cast<int>(b.kind),
                static_cast<unsigned long long>(b.interleaving));
    s += fingerprint(b.schedule);
    s += " detail=" + b.deadlock_detail;
    for (const auto& e : b.errors) {
      s += strfmt(" [rank=%d %s]", e.rank, e.message.c_str());
    }
  }
  for (const auto& a : r.unsafe_alerts) s += "\nalert: " + a;
  return s;
}

TEST(SchedSpec, ParseAndFormatRoundTrip) {
  for (const char* spec :
       {"thread", "coop", "coop-rr", "coop-random", "coop-priority"}) {
    mpism::SchedOptions options;
    ASSERT_TRUE(mpism::parse_sched_spec(spec, &options)) << spec;
    // "coop" is shorthand for round-robin; it formats canonically.
    const std::string canonical =
        std::string(spec) == "coop" ? "coop-rr" : spec;
    EXPECT_EQ(mpism::sched_spec(options), canonical);
    // Round trip: parse(format(x)) == x.
    mpism::SchedOptions reparsed;
    ASSERT_TRUE(mpism::parse_sched_spec(mpism::sched_spec(options), &reparsed));
    EXPECT_EQ(reparsed.kind, options.kind);
    EXPECT_EQ(reparsed.pick, options.pick);
  }
  mpism::SchedOptions untouched;
  untouched.seed = 99;
  EXPECT_FALSE(mpism::parse_sched_spec("fifo", &untouched));
  EXPECT_FALSE(mpism::parse_sched_spec("", &untouched));
  EXPECT_EQ(untouched.seed, 99u);  // failed parse leaves *out alone
}

// A default-constructed options struct gets the product backend: coop
// round-robin, the indexed matcher, the sharded engine lock and
// sleep-set POR, in every build; DAMPI_SCHED overrides the scheduler
// (the tier-1 thread sweep sets it).
TEST(Defaults, OptionsDefaultToTheProductBackend) {
  EXPECT_EQ(mpism::SchedOptions{}.kind, mpism::SchedulerKind::kCoop);
  EXPECT_EQ(mpism::SchedOptions{}.pick, mpism::SchedPolicy::kRoundRobin);
  EXPECT_STREQ(mpism::make_scheduler(mpism::SchedOptions{}, 2)->name(),
               "coop-rr");

  mpism::SchedOptions want;
  if (const char* env = std::getenv("DAMPI_SCHED");
      env != nullptr && env[0] != '\0') {
    ASSERT_TRUE(mpism::parse_sched_spec(env, &want)) << env;
  }
  const mpism::RunOptions run;
  const core::ExplorerOptions explore;
  for (const mpism::SchedOptions* sched : {&run.sched, &explore.sched}) {
    EXPECT_EQ(mpism::sched_spec(*sched), mpism::sched_spec(want));
    EXPECT_EQ(sched->seed, want.seed);
  }
  EXPECT_EQ(run.match, mpism::MatchKind::kIndexed);
  EXPECT_EQ(explore.match, mpism::MatchKind::kIndexed);
  EXPECT_EQ(run.engine_lock, mpism::EngineLockKind::kSharded);
  EXPECT_EQ(explore.engine_lock, mpism::EngineLockKind::kSharded);
  EXPECT_EQ(explore.por, core::PorMode::kSleep);
}

// Acceptance bar: same seed => bit-identical RunReport, 100/100, with
// no initial_schedule pinning anywhere. The wavefront's wildcard
// receives make this genuinely scheduling-sensitive — under the thread
// scheduler the match order (and hence message/stat details) may vary
// run to run; under coop it must not.
TEST(SchedDeterminism, RunReportBitIdentical100x) {
  const auto program = [](Proc& p) {
    workloads::WavefrontConfig config;
    config.sweeps = 2;
    workloads::wavefront(p, config);
  };
  for (const auto& sched :
       {coop(mpism::SchedPolicy::kRoundRobin),
        coop(mpism::SchedPolicy::kRandomSeeded, 42),
        coop(mpism::SchedPolicy::kPriority, 7)}) {
    std::optional<std::string> first;
    for (int i = 0; i < 100; ++i) {
      const auto report = run_program(run_options(8, sched), program);
      ASSERT_TRUE(report.ok()) << report.deadlock_detail;
      const std::string fp = fingerprint(report);
      if (!first.has_value()) {
        first = fp;
      } else {
        ASSERT_EQ(fp, *first)
            << mpism::sched_spec(sched) << " diverged at repetition " << i;
      }
    }
  }
}

// Different seeds must be *able* to produce different interleavings —
// otherwise the seeded policies are decoration and the explorer's
// diversity claim is hollow. (Round-robin ignores the seed by design.)
// Observed through a wildcard fan-in: whichever sender the seeded pick
// order lets arrive first is the one rank 0's first wildcard matches.
TEST(SchedDeterminism, SeedActuallySteersRandomPolicy) {
  std::set<int> first_sources;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    int first_src = -1;
    const auto report = run_program(
        run_options(8, coop(mpism::SchedPolicy::kRandomSeeded, seed)),
        [&first_src](Proc& p) {
          if (p.rank() == 0) {
            Bytes data;
            p.recv(mpism::kAnySource, 5, &data);
            first_src = unpack<int>(data);
            for (int i = 0; i < p.size() - 2; ++i) {
              p.recv(mpism::kAnySource, 5);
            }
          } else {
            p.send(0, 5, pack<int>(p.rank()));
          }
        });
    ASSERT_TRUE(report.ok());
    // And per seed the pick is stable: a second run must reproduce it.
    int again = -1;
    run_program(run_options(8, coop(mpism::SchedPolicy::kRandomSeeded, seed)),
                [&again](Proc& p) {
                  if (p.rank() == 0) {
                    Bytes data;
                    p.recv(mpism::kAnySource, 5, &data);
                    again = unpack<int>(data);
                    for (int i = 0; i < p.size() - 2; ++i) {
                      p.recv(mpism::kAnySource, 5);
                    }
                  } else {
                    p.send(0, 5, pack<int>(p.rank()));
                  }
                });
    ASSERT_EQ(again, first_src) << "seed " << seed;
    first_sources.insert(first_src);
  }
  EXPECT_GT(first_sources.size(), 1u);
}

// Full exploration (discovery run + DFS) is bit-identical across 100
// repetitions under coop, with no pinning.
TEST(SchedDeterminism, ExplorationBitIdentical100x) {
  std::optional<std::string> first;
  for (int i = 0; i < 100; ++i) {
    core::ExplorerOptions options = explorer_options(3);
    options.sched = coop();
    core::Explorer explorer(options);
    const auto result = explorer.explore(workloads::fig3_wildcard_bug);
    ASSERT_TRUE(result.found_bug());
    const std::string fp = fingerprint(result);
    if (!first.has_value()) {
      first = fp;
    } else {
      ASSERT_EQ(fp, *first) << "diverged at repetition " << i;
    }
  }
}

// Differential: coop and thread schedulers drive different native match
// orders but must visit the same outcome *set*, and that set must equal
// the brute-force reachability oracle (which forces every epoch, so it
// is scheduler-independent).
TEST(SchedDifferential, CoopThreadOracleAgreeOnFig3) {
  core::ExplorerOptions options = explorer_options(3);
  const auto reachable =
      ReferenceEnumerator(options, workloads::fig3_benign).enumerate();
  ASSERT_EQ(reachable.size(), 2u);

  core::ExplorerOptions coop_options = options;
  coop_options.sched = coop();
  EXPECT_EQ(explored_outcomes(coop_options, workloads::fig3_benign),
            reachable);

  core::ExplorerOptions thread_options = options;
  thread_options.sched = thread_sched();
  EXPECT_EQ(explored_outcomes(thread_options, workloads::fig3_benign),
            reachable);
}

TEST(SchedDifferential, CoopThreadOracleAgreeOnFig4VectorClocks) {
  core::ExplorerOptions options = explorer_options(4);
  options.clock_mode = core::ClockMode::kVector;
  const auto reachable =
      ReferenceEnumerator(options, workloads::fig4_cross_coupled).enumerate();
  ASSERT_EQ(reachable.size(), 3u);

  core::ExplorerOptions coop_options = options;
  coop_options.sched = coop();
  EXPECT_EQ(explored_outcomes(coop_options, workloads::fig4_cross_coupled),
            reachable);

  core::ExplorerOptions thread_options = options;
  thread_options.sched = thread_sched();
  EXPECT_EQ(explored_outcomes(thread_options, workloads::fig4_cross_coupled),
            reachable);
}

// The initial_schedule pin exists because *thread*-scheduled discovery
// runs race (see Regression.Fig4ExplorationDeterministicFromPinnedRoot).
// Under coop the pin is optional: pinned and unpinned explorations must
// agree on the outcome set, and the pin must still be honored exactly
// when supplied.
TEST(SchedPin, Fig4PinOptionalUnderCoop) {
  core::Schedule canonical_first_run;
  canonical_first_run.forced[core::EpochKey{1, 0}] = 0;
  canonical_first_run.forced[core::EpochKey{2, 0}] = 3;

  core::ExplorerOptions unpinned = explorer_options(4);
  unpinned.clock_mode = core::ClockMode::kVector;
  unpinned.sched = coop();
  std::optional<std::set<OutcomeSignature>> baseline;
  for (int i = 0; i < 10; ++i) {
    const auto outcomes =
        explored_outcomes(unpinned, workloads::fig4_cross_coupled);
    if (!baseline.has_value()) {
      baseline = outcomes;
    } else {
      ASSERT_EQ(outcomes, *baseline) << "unpinned coop run " << i;
    }
  }
  ASSERT_EQ(baseline->size(), 3u);

  core::ExplorerOptions pinned = unpinned;
  pinned.initial_schedule = canonical_first_run;
  EXPECT_EQ(explored_outcomes(pinned, workloads::fig4_cross_coupled),
            *baseline);

  // The pin is honored exactly: the forced decisions appear verbatim in
  // the discovery run's trace.
  const auto single = run_dampi_once(pinned, canonical_first_run,
                                     workloads::fig4_cross_coupled);
  for (const auto& [key, src] : canonical_first_run.forced) {
    const auto* epoch = find_epoch(single.trace, key.rank, key.nd_index);
    ASSERT_NE(epoch, nullptr);
    EXPECT_EQ(epoch->matched_src_world, src);
  }
}

// The deadlock-detector satellite: a runnable-but-unscheduled fiber is
// neither blocked nor finished, so the engine's count-based criterion
// ("blocked + finished == nprocs") would fire falsely the moment the
// running rank blocks while hundreds of peers wait for their first
// dispatch. The scheduler's stall scan must not.
TEST(SchedDeadlock, NoFalseDeadlockAtLargeNprocs) {
  // Root blocks in its first wildcard receive while most of the other
  // 127 ranks have not run at all — the false-positive shape.
  const auto report = run_program(
      run_options(128, coop()),
      [](Proc& p) { workloads::fan_in_rounds(p, 2); });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

TEST(SchedDeadlock, GenuineDeadlocksStillDetected) {
  for (const auto& sched :
       {coop(mpism::SchedPolicy::kRoundRobin),
        coop(mpism::SchedPolicy::kRandomSeeded, 3)}) {
    const auto report =
        run_program(run_options(2, sched), workloads::simple_deadlock);
    EXPECT_TRUE(report.deadlocked) << mpism::sched_spec(sched);
    EXPECT_FALSE(report.deadlock_detail.empty());
    EXPECT_FALSE(report.completed);
  }
  // And through the full verification stack: the wildcard-dependent
  // deadlock is still found by exploration under coop.
  core::ExplorerOptions options = explorer_options(3);
  options.sched = coop();
  core::Explorer explorer(options);
  const auto result = explorer.explore(workloads::wildcard_dependent_deadlock);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.bugs.back().kind, core::BugRecord::Kind::kDeadlock);
}

// Non-blocking polls are yield points: a rank spinning on test() must
// cede the host or the sender it is waiting for never runs. (The
// thread scheduler passes trivially — the OS preempts.)
TEST(SchedYield, TestPollLoopCompletesUnderCoop) {
  const auto report = run_program(run_options(2, coop()), [](Proc& p) {
    if (p.rank() == 0) {
      const auto req = p.irecv(1, 7);
      Bytes data;
      int polls = 0;
      while (!p.test(req, nullptr, &data)) {
        p.require(++polls < 1000000, "poll cap hit: sender starved");
      }
      p.require(unpack<int>(data) == 42, "payload mangled");
      // iprobe misses must yield too (empty queue: nothing sent on tag 9).
      p.require(!p.iprobe(1, 9), "phantom message");
    } else {
      p.compute(50.0);
      p.send(0, 7, pack<int>(42));
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

// Acceptance bar: a 512-rank wavefront completes a verification run
// under --sched=coop. All 512 ranks are fibers on the exploring thread,
// so this exercises single-core scheduling at a rank count a
// thread-per-rank engine would need 512 OS threads for.
TEST(SchedScale, Wavefront512RankVerificationCompletes) {
  core::ExplorerOptions options = explorer_options(512);
  options.sched = coop();
  options.max_interleavings = 2;  // discovery + one guided replay
  core::Explorer explorer(options);
  const auto result = explorer.explore([](Proc& p) {
    workloads::WavefrontConfig config;
    config.sweeps = 1;
    workloads::wavefront(p, config);
  });
  EXPECT_TRUE(result.first_report.completed)
      << result.first_report.deadlock_detail;
  EXPECT_TRUE(result.bugs.empty());
  EXPECT_GE(result.interleavings, 1u);
  EXPECT_GT(result.wildcard_recv_epochs, 0u);
}

/// Every MPI call of the pick-pin program appends (rank, step) on return,
/// so the log is the order in which the scheduler let ranks proceed.
struct PickLog {
  std::vector<std::pair<mpism::Rank, int>> entries;
  void note(const Proc& p, int step) { entries.emplace_back(p.rank(), step); }
};

/// 256 ranks: an allreduce, two wildcard receives per rank, iprobe and
/// test polls (yield points, each capped before falling back to a
/// blocking call so no policy can starve the sender), a bcast, a gather
/// and a barrier.
void pick_pin_program(Proc& p, PickLog& log) {
  const int n = p.size();
  const mpism::Rank me = p.rank();
  p.allreduce_u64(static_cast<std::uint64_t>(me), mpism::ReduceOp::kSumU64);
  log.note(p, 0);
  p.send((me + 1) % n, 1, {});
  p.send((me + 7) % n, 1, {});
  for (int i = 0; i < 2; ++i) {
    const mpism::Status st = p.recv(mpism::kAnySource, 1);
    log.note(p, 100 + st.source);
  }
  if (me % 2 == 0) {
    int polls = 0;
    while (polls < 3 && !p.iprobe(me + 1, 2)) ++polls;
    log.note(p, 1000 + polls);
    p.recv(me + 1, 2);
    const mpism::RequestId req = p.irecv(me + 1, 3);
    polls = 0;
    while (polls < 3 && !p.test(req)) ++polls;
    if (polls == 3) p.wait(req);
    log.note(p, 2000 + polls);
  } else {
    p.compute(static_cast<double>(me % 5));
    p.send(me - 1, 2, {});
    p.compute(1.0);
    p.send(me - 1, 3, {});
    log.note(p, 3000);
  }
  Bytes data;
  if (me == 3) data = pack<int>(7);
  p.bcast(&data, 3);
  log.note(p, 4000);
  p.gather({}, 5);
  log.note(p, 5000);
  p.barrier();
  log.note(p, 6000);
}

// The coop scheduler's picks at scale, pinned: a 256-rank program with
// collectives, wildcard receives and iprobe/test polls runs clean and
// again with rank 200 aborted by an injected fault at its 6th call,
// under each coop policy. The digest covers every run's dispatch log and
// report; a change to how the scheduler picks among runnable ranks (or
// to which ranks it considers runnable) moves it.
TEST(SchedPin, PickSequence256RanksDigestIsPinned) {
  std::uint64_t h = kDigestSeed;
  for (const auto& sched : {coop(mpism::SchedPolicy::kRoundRobin),
                            coop(mpism::SchedPolicy::kRandomSeeded, 11),
                            coop(mpism::SchedPolicy::kPriority, 5)}) {
    for (const bool faulty : {false, true}) {
      mpism::RunOptions options = run_options(256, sched);
      if (faulty) {
        std::string error;
        std::shared_ptr<mpism::FaultPlan> plan =
            mpism::parse_fault_plan("abort@200:6", &error);
        ASSERT_NE(plan, nullptr) << error;
        options.tools.make_stack = [plan](mpism::Rank r, int) {
          std::vector<std::unique_ptr<mpism::ToolLayer>> stack;
          stack.push_back(std::make_unique<mpism::FaultLayer>(plan, r));
          return stack;
        };
      }
      PickLog log;
      const mpism::RunReport report = run_program(
          std::move(options), [&log](Proc& p) { pick_pin_program(p, log); });
      EXPECT_EQ(report.ok(), !faulty) << mpism::sched_spec(sched);
      std::string fp = mpism::sched_spec(sched) + "\n" + fingerprint(report);
      fp += strfmt("\npicks=%zu:", log.entries.size());
      for (const auto& [rank, step] : log.entries) {
        fp += strfmt(" %d.%d", rank, step);
      }
      h = digest_step(h, fp);
    }
  }
  EXPECT_EQ(h, 0x0229a55f7475d13bull) << strfmt("digest 0x%016llx",
                                 static_cast<unsigned long long>(h));
}

/// Runs `fn` on a new thread, whose fiber-stack cache starts empty.
template <typename Fn>
void on_fresh_thread(Fn fn) {
  std::thread(fn).join();
}

std::uint64_t stacks_mapped() {
  return obs::Registry::instance().counter("scheduler.stacks_mapped").value();
}

// Back-to-back coop runs on one thread take their fiber stacks from the
// thread's cache: growing from 4 to 64 ranks maps only the 60 missing
// stacks, and shrinking back maps none. Reuse must be invisible to the
// program: every fingerprint equals that of a run on a fresh thread.
TEST(SchedStacks, BackToBackRunsReuseCachedStacksBitIdentically) {
  const auto program = [](Proc& p) { workloads::fan_in_rounds(p, 3); };
  const auto run_fp = [&program](int nprocs) {
    return fingerprint(run_program(run_options(nprocs, coop()), program));
  };
  std::string fresh_4;
  std::string fresh_64;
  on_fresh_thread([&] { fresh_4 = run_fp(4); });
  on_fresh_thread([&] { fresh_64 = run_fp(64); });

  on_fresh_thread([&] {
    const struct {
      int nprocs;
      std::uint64_t newly_mapped;
      const std::string& want;
    } steps[] = {{4, 4, fresh_4}, {64, 60, fresh_64}, {4, 0, fresh_4}};
    for (const auto& step : steps) {
      const std::uint64_t before = stacks_mapped();
      EXPECT_EQ(run_fp(step.nprocs), step.want) << "nprocs " << step.nprocs;
      EXPECT_EQ(stacks_mapped() - before, step.newly_mapped)
          << "nprocs " << step.nprocs;
    }

    // An exploration on the warm thread: its replays reuse the cached
    // stacks, mapping none, and the result equals an exploration on a
    // fresh thread.
    core::ExplorerOptions options = explorer_options(4);
    options.sched = coop();
    const auto explore_fp = [&options] {
      core::Explorer explorer(options);
      return fingerprint(explorer.explore(
          [](Proc& p) { workloads::fan_in_rounds(p, 2); }));
    };
    std::string fresh_explore;
    on_fresh_thread([&] { fresh_explore = explore_fp(); });
    obs::Counter& coop_runs =
        obs::Registry::instance().counter("scheduler.coop_runs");
    const std::uint64_t runs_before = coop_runs.value();
    const std::uint64_t mapped_before = stacks_mapped();
    EXPECT_EQ(explore_fp(), fresh_explore);
    const std::uint64_t runs = coop_runs.value() - runs_before;
    const std::uint64_t mapped = stacks_mapped() - mapped_before;
    EXPECT_GT(runs, 10u);
    EXPECT_EQ(mapped, 0u) << "over " << runs << " runs";
  });
}

/// Touches every byte of a 512-byte frame per level, so the descent
/// cannot step over a guard page.
int recurse_deep(int depth) {
  volatile char pad[512];
  for (auto& c : pad) c = static_cast<char>(depth);
  if (depth == 0) return pad[0];
  return recurse_deep(depth - 1) + pad[depth % 512];
}

// A rank that recurses past its fiber stack dies at the guard page below
// it instead of overwriting whatever memory lies there. The overflow is
// modest — 640 frames of over 512 bytes, some 64 KiB past the 256 KiB
// stack — and rank 0 makes it only after rank 1, whose stack was mapped
// just below rank 0's, has finished: without the guard the write would
// land in that dead stack and the run would complete. Under ASan or TSan
// the sanitizer's own SEGV handler, which knows the fiber's stack bounds,
// reports the stack overflow and exits before the signal can kill us.
TEST(SchedStacksDeathTest, OverflowDiesAtGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto overflow = [] {
    run_program(run_options(2, coop()), [](Proc& p) {
      if (p.rank() == 0) {
        p.recv(1, 1);  // rank 1 runs to completion meanwhile
        p.require(recurse_deep(640) != 1, "");
      } else {
        p.send(0, 1, pack<int>(0));
      }
    });
  };
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_EXIT(overflow(), ::testing::ExitedWithCode(1), "stack-overflow");
#elif defined(__SANITIZE_THREAD__)
  EXPECT_EXIT(overflow(), ::testing::ExitedWithCode(66), "stack-overflow");
#else
  EXPECT_EXIT(overflow(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

// Floating-point control state (MXCSR and the x87 control word) belongs
// to the fiber: a rank that switches to upward rounding and then blocks
// must not hand that mode to the next rank dispatched, and gets its own
// mode back when it resumes.
TEST(SchedFloatingPoint, RoundingModeStaysWithItsFiber) {
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest_third = one / three;
  int rank1_mode = -1;
  double rank1_third = 0.0;
  int rank0_mode_after_block = -1;
  const auto report = run_program(run_options(2, coop()), [&](Proc& p) {
    if (p.rank() == 0) {
      std::fesetround(FE_UPWARD);
      p.recv(1, 1);  // blocks; round-robin dispatches rank 1 next
      rank0_mode_after_block = std::fegetround();
      std::fesetround(FE_TONEAREST);
    } else {
      rank1_mode = std::fegetround();
      rank1_third = one / three;
      p.send(0, 1, pack<int>(0));
    }
  });
  ASSERT_TRUE(report.ok()) << report.deadlock_detail;
  EXPECT_EQ(rank1_mode, FE_TONEAREST);
  EXPECT_EQ(rank1_third, nearest_third);
  EXPECT_EQ(rank0_mode_after_block, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

}  // namespace
}  // namespace dampi::test
