// Stopped runs (ctest label `sched`). A run that ends early — an
// injected abort or MPI error, a deadlock, an op-budget hang, an
// external cancel, or a sibling's program error — must report the same
// verdict, virtual time, stats and DAMPI trace whatever path its ranks
// take out, and must leave nothing behind:
//
//  - a digest over a fixed corpus of stopping runs (fault sweeps of
//    mini-ADLB at 8 ranks plus one run of every other stop cause, under
//    coop round-robin and coop seeded-random) pins every RunReport field
//    but wall time, the flushed trace, and the pooled objects left after
//    the engine's reset;
//  - a program holding an RAII counter across every blocking kind
//    (point-to-point waits, probes, synchronous sends, each collective,
//    test/iprobe poll loops) is stopped by every cause under both
//    schedulers: every object it built is destroyed, every pooled record
//    is back in its pool, and a stopped rank never blocks again;
//  - a coop run cancelled from another thread while its ranks are
//    parked unwinds every rank, though the cancel never touches the
//    coop scheduler's ready set.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strutil.hpp"
#include "core/replay_context.hpp"
#include "mpism/cancel.hpp"
#include "mpism/engine.hpp"
#include "mpism/fault.hpp"
#include "obs/trace.hpp"
#include "support/digest.hpp"
#include "support/run_fingerprint.hpp"
#include "workloads/adlb.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using mpism::Bytes;
using mpism::Proc;

mpism::SchedOptions coop(mpism::SchedPolicy pick, std::uint64_t seed) {
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

std::shared_ptr<mpism::FaultPlan> plan(const std::string& spec) {
  std::string error;
  std::shared_ptr<mpism::FaultPlan> parsed =
      mpism::parse_fault_plan(spec, &error);
  EXPECT_NE(parsed, nullptr) << spec << ": " << error;
  return parsed;
}

void adlb_program(Proc& p) {
  workloads::adlb::Config config;
  config.roots_per_server = 4;
  workloads::adlb::run(p, config);
}

/// The source a cancelling program fires from inside its run.
mpism::CancelSource* g_cancel = nullptr;

/// Ranks 1..n-1 wait for rank 0 at a barrier; rank 0 cancels the run
/// instead of joining it.
void cancel_program(Proc& p) {
  if (p.rank() == 0) {
    p.send(1, 3, mpism::pack<int>(1));
    g_cancel->cancel("cancelled from inside the run");
    p.compute(1.0);
  } else if (p.rank() == 1) {
    p.recv(0, 3);
  }
  p.barrier();
}

/// Every rank but the last blocks on a message from the last, which
/// sends to a rank that does not exist.
void sibling_error_program(Proc& p) {
  const int last = p.size() - 1;
  if (p.rank() == last) {
    p.send(0, 4, mpism::pack<int>(0));
    p.send(p.size() + 3, 4, mpism::pack<int>(1));
  } else {
    p.recv(last, 4);
    p.recv(last, 4);
  }
}

struct PinCase {
  std::string name;
  int nprocs = 8;
  mpism::ProgramFn program;
  std::function<void(core::ExplorerOptions&)> tweak;
};

std::vector<PinCase> pin_corpus() {
  std::vector<PinCase> cases;
  for (const char* kind : {"abort", "error"}) {
    // Workers (ranks 0-6) and the server (rank 7), early and late.
    for (const auto& [rank, op] : {std::pair{0, 1}, {0, 4}, {3, 2}, {3, 4},
                                   {6, 3}, {6, 4}, {7, 1}, {7, 9}, {7, 20}}) {
      // Abort plans piggyback in the payload, error plans on the
      // separate-message transport (the default).
      const std::string spec = strfmt("%s@%d:%d", kind, rank, op);
      const bool packed = kind[0] == 'a';
      cases.push_back({"adlb " + spec, 8, adlb_program,
                       [spec, packed](core::ExplorerOptions& o) {
                         o.fault = plan(spec);
                         if (packed) {
                           o.transport =
                               piggyback::TransportKind::kPackedPayload;
                         }
                       }});
    }
  }
  cases.push_back({"simple deadlock", 3, workloads::simple_deadlock, {}});
  cases.push_back({"wildcard deadlock", 3,
                   workloads::wildcard_dependent_deadlock,
                   [](core::ExplorerOptions& o) {
                     o.initial_schedule.forced[core::EpochKey{1, 0}] = 2;
                   }});
  cases.push_back({"op budget", 4, workloads::livelock,
                   [](core::ExplorerOptions& o) { o.max_run_ops = 300; }});
  cases.push_back({"cancel", 4, cancel_program, {}});
  cases.push_back({"sibling error", 5, sibling_error_program, {}});
  return cases;
}

// Recorded before the engine stopped throwing through its own frames:
// any change in which hooks, charges, clocks or trace records a stopped
// run still sees moves it. The value assumes IEEE doubles and glibc's %a
// formatting (x86-64 Linux).
TEST(StopPin, StoppedRunsDigestIsPinned) {
  constexpr std::uint64_t kPinnedDigest = 0x51158ab286b19eaaull;
  std::uint64_t digest = kDigestSeed;
  int runs = 0;
  for (const mpism::SchedOptions& sched :
       {coop(mpism::SchedPolicy::kRoundRobin, 1),
        coop(mpism::SchedPolicy::kRandomSeeded, 7)}) {
    for (const PinCase& c : pin_corpus()) {
      core::ExplorerOptions options;
      options.nprocs = c.nprocs;
      options.sched = sched;
      auto source = std::make_shared<mpism::CancelSource>();
      options.cancel = source;
      g_cancel = source.get();
      if (c.tweak) c.tweak(options);
      core::ReplayContext context(options);
      core::SingleRun run;
      context.run(options.initial_schedule, c.program, &run);
      EXPECT_FALSE(run.report.completed) << c.name;
      ++runs;
      digest = digest_step(
          digest, mpism::sched_spec(sched) + " " + c.name + "\n" +
                      fingerprint(run) +
                      strfmt("\npooled_live=%llu",
                             static_cast<unsigned long long>(
                                 context.pooled_live())));
    }
  }
  g_cancel = nullptr;
  EXPECT_EQ(digest, kPinnedDigest)
      << std::hex << "stopped-run fingerprints drifted: digest 0x" << digest
      << std::dec << " over " << runs << " runs";
}

// ---------------------------------------------------------------------------
// Every blocking kind, every stop cause, both schedulers
// ---------------------------------------------------------------------------

std::atomic<int> g_built{0};
std::atomic<int> g_destroyed{0};
std::atomic<int> g_victim_unwinds{0};

/// An RAII object the programs hold across their blocking calls.
struct Held {
  Held() { g_built.fetch_add(1, std::memory_order_relaxed); }
  ~Held() { g_destroyed.fetch_add(1, std::memory_order_relaxed); }
  Held(const Held&) = delete;
  Held& operator=(const Held&) = delete;
};

enum class Cause {
  kAbortFault,
  kErrorFault,
  kDeadlock,
  kOpBudget,
  kCancel,
  kSiblingError
};

constexpr Cause kCauses[] = {Cause::kAbortFault, Cause::kErrorFault,
                             Cause::kDeadlock,   Cause::kOpBudget,
                             Cause::kCancel,     Cause::kSiblingError};

const char* cause_name(Cause cause) {
  switch (cause) {
    case Cause::kAbortFault: return "abort fault";
    case Cause::kErrorFault: return "error fault";
    case Cause::kDeadlock: return "deadlock";
    case Cause::kOpBudget: return "op budget";
    case Cause::kCancel: return "cancel";
    case Cause::kSiblingError: return "sibling error";
  }
  return "?";
}

/// One way for rank 0 to wait on rank 2, which never sends, receives or
/// joins a collective. `polls` kinds spin instead of blocking, so they
/// cannot deadlock.
struct BlockingKind {
  const char* name;
  bool polls;
  void (*enter)(Proc&);
};

constexpr mpism::Tag kVictimTag = 5;

const BlockingKind kKinds[] = {
    {"recv", false, [](Proc& p) { p.recv(2, kVictimTag); }},
    {"wait", false, [](Proc& p) { p.wait(p.irecv(2, kVictimTag)); }},
    {"waitall", false,
     [](Proc& p) {
       std::vector<mpism::RequestId> reqs;
       for (int i = 0; i < 64; ++i) reqs.push_back(p.irecv(2, kVictimTag));
       p.waitall(reqs);
     }},
    {"waitany", false,
     [](Proc& p) {
       std::vector<mpism::RequestId> reqs = {p.irecv(2, kVictimTag),
                                             p.irecv(2, kVictimTag + 1)};
       p.waitany(reqs);
     }},
    {"probe", false, [](Proc& p) { p.probe(2, kVictimTag); }},
    {"ssend", false,
     [](Proc& p) { p.ssend(2, kVictimTag, mpism::pack<int>(1)); }},
    {"barrier", false, [](Proc& p) { p.barrier(); }},
    {"bcast", false,
     [](Proc& p) {
       Bytes data;
       p.bcast(&data, 2);
     }},
    {"reduce", false,
     [](Proc& p) {
       p.reduce(mpism::pack<std::uint64_t>(1), mpism::ReduceOp::kSumU64, 0);
     }},
    {"allreduce", false,
     [](Proc& p) { p.allreduce_u64(1, mpism::ReduceOp::kSumU64); }},
    {"gather", false, [](Proc& p) { p.gather(mpism::pack<int>(1), 0); }},
    {"scatter", false, [](Proc& p) { p.scatter({}, 2); }},
    {"allgather", false, [](Proc& p) { p.allgather(mpism::pack<int>(1)); }},
    {"alltoall", false,
     [](Proc& p) {
       p.alltoall(std::vector<Bytes>(static_cast<std::size_t>(p.size()),
                                     mpism::pack<int>(1)));
     }},
    {"comm_dup", false, [](Proc& p) { p.comm_dup(); }},
    {"comm_split", false, [](Proc& p) { p.comm_split(0, 0); }},
    {"iprobe loop", true,
     [](Proc& p) {
       while (!p.iprobe(2, kVictimTag)) {
       }
     }},
    {"test loop", true,
     [](Proc& p) {
       const mpism::RequestId req = p.irecv(2, kVictimTag);
       while (!p.test(req)) {
       }
     }},
};

/// Rank 0 blocks in `kind`; rank 1 stops the run by `cause`; rank 2
/// returns at once. Every rank holds a Held throughout.
void stop_program(Proc& p, const BlockingKind& kind, Cause cause) {
  Held held;
  if (p.rank() == 0) {
    Held inner;
    std::vector<Bytes> scratch(4, Bytes(100));
    try {
      kind.enter(p);
    } catch (const mpism::AbortRun&) {
      g_victim_unwinds.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  } else if (p.rank() == 1) {
    switch (cause) {
      case Cause::kAbortFault:
      case Cause::kErrorFault:
        p.iprobe(0, 77);  // rank 1's first operation: the fault fires
        break;
      case Cause::kDeadlock:
        break;
      case Cause::kOpBudget:
        for (;;) p.iprobe(0, 77);
      case Cause::kCancel:
        g_cancel->cancel("stopped by rank 1");
        p.compute(1.0);
        break;
      case Cause::kSiblingError:
        p.send(9, 5, mpism::pack<int>(0));
        break;
    }
  }
}

mpism::RunOptions stop_options(Cause cause, const mpism::SchedOptions& sched,
                               std::shared_ptr<mpism::CancelSource> source) {
  mpism::RunOptions options;
  options.nprocs = 3;
  options.sched = sched;
  options.cancel = std::move(source);
  if (cause == Cause::kOpBudget) options.max_ops = 200;
  if (cause == Cause::kAbortFault || cause == Cause::kErrorFault) {
    std::shared_ptr<mpism::FaultPlan> faults =
        plan(cause == Cause::kAbortFault ? "abort@1:1" : "error@1:1");
    options.tools.make_stack = [faults](mpism::Rank r, int) {
      std::vector<std::unique_ptr<mpism::ToolLayer>> stack;
      stack.push_back(std::make_unique<mpism::FaultLayer>(faults, r));
      return stack;
    };
  }
  return options;
}

/// The verdict `cause` must leave in the report.
bool stopped_by(Cause cause, const mpism::RunReport& report) {
  const std::string error =
      report.errors.empty() ? std::string() : report.errors.front().message;
  switch (cause) {
    case Cause::kAbortFault:
      return error.starts_with("fault injected: rank abort injected at rank 1");
    case Cause::kErrorFault:
      return error.starts_with("fault injected: MPI error injected at rank 1");
    case Cause::kDeadlock: return report.deadlocked;
    case Cause::kOpBudget: return report.timed_out();
    case Cause::kCancel: return report.cancelled;
    case Cause::kSiblingError:
      return error == "send to invalid rank 9";
  }
  return false;
}

TEST(StopUnwind, EveryBlockingKindUnwindsWithoutLeaks) {
  for (const mpism::SchedOptions& sched :
       {coop(mpism::SchedPolicy::kRoundRobin, 1), thread_sched()}) {
    for (const Cause cause : kCauses) {
      for (const BlockingKind& kind : kKinds) {
        if (kind.polls && cause == Cause::kDeadlock) continue;
        const std::string what = mpism::sched_spec(sched) + " " +
                                  cause_name(cause) + " in " + kind.name;
        auto source = std::make_shared<mpism::CancelSource>();
        g_cancel = source.get();
        g_built = 0;
        g_destroyed = 0;
        g_victim_unwinds = 0;
        mpism::Engine engine(stop_options(cause, sched, source));
        const mpism::RunReport report = engine.run(
            [&kind, cause](Proc& p) { stop_program(p, kind, cause); });
        EXPECT_FALSE(report.completed) << what;
        EXPECT_TRUE(stopped_by(cause, report)) << what << "\n"
                                                << fingerprint(report);
        EXPECT_EQ(g_built.load(), 4) << what;
        EXPECT_EQ(g_destroyed.load(), g_built.load()) << what;
        EXPECT_EQ(g_victim_unwinds.load(), 1) << what;
        EXPECT_EQ(engine.pooled_live(), 0u) << what;
      }
    }
  }
  g_cancel = nullptr;
}

// A cancel from another thread lands while every rank but the last is
// parked in a blocking receive and the last polls. The coop scheduler's
// wake_all is a no-op, so only pick()'s stop scan can release the
// parked ranks: each must unwind once and destroy what it holds.
TEST(StopUnwind, CancelFromAnotherThreadReleasesParkedCoopRanks) {
  constexpr int kRanks = 4;
  auto source = std::make_shared<mpism::CancelSource>();
  g_built = 0;
  g_destroyed = 0;
  g_victim_unwinds = 0;
  std::atomic<bool> polling{false};
  mpism::RunOptions options;
  options.nprocs = kRanks;
  options.sched = coop(mpism::SchedPolicy::kRoundRobin, 1);
  options.cancel = source;
  mpism::Engine engine(options);
  std::thread canceller([&polling, &source] {
    while (!polling.load(std::memory_order_acquire)) std::this_thread::yield();
    source->cancel("cancelled from another thread");
  });
  const mpism::RunReport report = engine.run([&polling](Proc& p) {
    Held held;
    const int last = p.size() - 1;
    try {
      if (p.rank() == last) {
        // Round-robin runs this rank after every other one has parked.
        polling.store(true, std::memory_order_release);
        while (!p.iprobe(0, kVictimTag)) {
        }
      } else {
        p.recv(last, kVictimTag);
      }
    } catch (const mpism::AbortRun&) {
      g_victim_unwinds.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  });
  canceller.join();
  EXPECT_TRUE(report.cancelled) << fingerprint(report);
  EXPECT_EQ(report.stop_reason, "cancelled from another thread");
  EXPECT_EQ(g_built.load(), kRanks);
  EXPECT_EQ(g_destroyed.load(), kRanks);
  EXPECT_EQ(g_victim_unwinds.load(), kRanks);
  EXPECT_EQ(engine.pooled_live(), 0u);
}

/// Block-span begins in rank `r`'s trace lane.
int blocks_of(const std::vector<obs::LaneSnapshot>& lanes, mpism::Rank r) {
  const std::string name = strfmt("rank %d", r);
  int blocks = 0;
  for (const obs::LaneSnapshot& lane : lanes) {
    if (lane.name != name) continue;
    for (const obs::TraceEvent& e : lane.events) {
      if (e.kind == obs::EventKind::kBlock && e.phase == obs::Phase::kBegin) {
        ++blocks;
      }
    }
  }
  return blocks;
}

// DESIGN.md decision 8's termination argument: once the run stops, a
// rank never blocks again. Rank 0 waits on 64 receives that rank 1 will
// never match, and rank 1 fails: rank 0's waitall parks at most once
// (exactly once under coop, where rank 0 parks before rank 1 runs), and
// rank 0's program sees exactly one AbortRun.
TEST(StopUnwind, StoppedWaitallOverManyRequestsReturnsOnce) {
  obs::Tracer& tracer = obs::Tracer::instance();
  for (const mpism::SchedOptions& sched :
       {coop(mpism::SchedPolicy::kRoundRobin, 1), thread_sched()}) {
    const std::string what = mpism::sched_spec(sched);
    tracer.reset();
    tracer.set_capacity(1u << 12);
    tracer.set_enabled(true);
    g_victim_unwinds = 0;
    mpism::RunOptions options;
    options.nprocs = 2;
    options.sched = sched;
    mpism::Engine engine(options);
    const mpism::RunReport report = engine.run([](Proc& p) {
      if (p.rank() == 0) {
        // Under threads rank 1 may fail before rank 0 reaches waitall;
        // rank 0 then unwinds from an earlier call instead.
        try {
          std::vector<mpism::RequestId> reqs;
          for (int i = 0; i < 64; ++i) reqs.push_back(p.irecv(1, 8));
          p.send(1, 6, mpism::pack<int>(0));
          p.waitall(reqs);
        } catch (const mpism::AbortRun&) {
          g_victim_unwinds.fetch_add(1, std::memory_order_relaxed);
          throw;
        }
      } else {
        p.recv(0, 6);
        p.fail("rank 1 gives up");
      }
    });
    tracer.set_enabled(false);
    const int blocks = blocks_of(tracer.snapshot(), 0);
    tracer.reset();
    ASSERT_EQ(report.errors.size(), 1u) << what;
    EXPECT_EQ(report.errors[0].message, "rank 1 gives up") << what;
    EXPECT_EQ(g_victim_unwinds.load(), 1) << what;
    if (sched.kind == mpism::SchedulerKind::kCoop) {
      EXPECT_EQ(blocks, 1) << what;
    } else {
      EXPECT_LE(blocks, 1) << what;
    }
    EXPECT_EQ(engine.pooled_live(), 0u) << what;
  }
}

}  // namespace
}  // namespace dampi::test
