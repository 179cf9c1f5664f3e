// Allocation-free steady-state replays (DESIGN.md §4, item 16).
//
// A guided replay reuses one warm ReplayContext — engine, scheduler, tool
// stacks, DampiShared, TraceSink — and resets it between runs. These
// tests pin what that buys and what it must never cost:
//
//  - a counting operator new (this binary only) pins the heap
//    allocations per steady-state interleaving of the benchmark's
//    explore-adlb and dist-fanout walks, and checks that the storage a
//    context retains stops growing once warm;
//  - a state-bleed differential replays failing runs of every kind
//    (deadlock, program error, watchdog timeout, injected fault,
//    external cancel) through one context, each followed by a clean
//    schedule, and requires every report and trace to equal a fresh
//    context's, with every pooled object back in its pool after reset;
//  - under AddressSanitizer, touching recycled pool memory is reported.
//
// Count assertions are skipped under sanitizers (which interpose the
// allocator and force the thread scheduler).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "core/explorer.hpp"
#include "core/replay_context.hpp"
#include "mpism/cancel.hpp"
#include "mpism/engine.hpp"
#include "mpism/fault.hpp"
#include "mpism/pool.hpp"
#include "obs/metrics.hpp"
#include "support/digest.hpp"
#include "support/run_fingerprint.hpp"
#include "workloads/adlb.hpp"
#include "workloads/patterns.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DAMPI_TEST_SANITIZED 1
#endif

namespace dampi {
namespace {

// ---------------------------------------------------------------------------
// Counting allocator. Every operator new/delete of this binary goes through
// a size header, so the tests can read both the number of allocations and
// the bytes currently live. Sanitized builds keep their own allocator.
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

#if !defined(DAMPI_TEST_SANITIZED)

/// Header before every block: the requested size and the malloc'd base
/// (aligned blocks start past an alignment gap). 16 bytes keep malloc's
/// alignment for ordinary blocks.
struct Header {
  std::size_t size;
  void* base;
};
static_assert(sizeof(Header) == 16);

void* counted_alloc(std::size_t size, std::size_t align) {
  const std::size_t slack = align > alignof(std::max_align_t) ? align : 0;
  void* base = std::malloc(sizeof(Header) + slack + size);
  if (base == nullptr) throw std::bad_alloc();
  auto user = reinterpret_cast<std::uintptr_t>(base) + sizeof(Header);
  if (slack != 0) user = (user + align - 1) & ~(std::uintptr_t{align} - 1);
  auto* header = reinterpret_cast<Header*>(user - sizeof(Header));
  header->size = size;
  header->base = base;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  return reinterpret_cast<void*>(user);
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  const auto* header = reinterpret_cast<const Header*>(
      reinterpret_cast<std::uintptr_t>(p) - sizeof(Header));
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(header->size),
                         std::memory_order_relaxed);
  std::free(header->base);
}

#endif  // !DAMPI_TEST_SANITIZED

}  // namespace
}  // namespace dampi

#if !defined(DAMPI_TEST_SANITIZED)
void* operator new(std::size_t n) { return dampi::counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return dampi::counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return dampi::counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return dampi::counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { dampi::counted_free(p); }
void operator delete[](void* p) noexcept { dampi::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { dampi::counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept {
  dampi::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  dampi::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  dampi::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  dampi::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  dampi::counted_free(p);
}
#endif

namespace dampi {
namespace {

using core::ExplorerOptions;
using core::ReplayContext;
using core::Schedule;
using core::SingleRun;

#define SKIP_WHEN_SANITIZED()                                             \
  do {                                                                    \
    if (DAMPI_SANITIZED_BUILD) {                                          \
      GTEST_SKIP() << "sanitizers interpose the allocator";               \
    }                                                                     \
  } while (false)

#if defined(DAMPI_TEST_SANITIZED)
constexpr bool DAMPI_SANITIZED_BUILD = true;
#else
constexpr bool DAMPI_SANITIZED_BUILD = false;
#endif

/// The benchmark's backend pins (perfbench pinned_options): coop
/// round-robin, indexed matcher, sharded lock, sleep-set POR, Lamport
/// clocks, separate-message piggyback.
ExplorerOptions pinned_options(int nprocs) {
  ExplorerOptions o;
  o.nprocs = nprocs;
  o.clock_mode = core::ClockMode::kLamport;
  o.transport = piggyback::TransportKind::kSeparateMessage;
  o.sched = mpism::SchedOptions{};
  o.sched.kind = mpism::SchedulerKind::kCoop;
  o.match = mpism::MatchKind::kIndexed;
  o.engine_lock = mpism::EngineLockKind::kSharded;
  o.por = core::PorMode::kSleep;
  return o;
}

void adlb_program(mpism::Proc& p) {
  workloads::adlb::Config config;
  config.roots_per_server = 4;
  workloads::adlb::run(p, config);
}

void fanout_program(mpism::Proc& p) {
  workloads::dist_fanout(p, /*rounds=*/2, /*spin_us=*/200.0);
}

/// Growth of `count` per interleaving once warm: the difference between
/// a walk of 2n and one of n interleavings, so discovery, explorer and
/// context construction cancel out.
double steady_per_interleaving(ExplorerOptions options,
                               const mpism::ProgramFn& program,
                               std::uint64_t n, std::uint64_t (*count)()) {
  auto walk = [&](std::uint64_t budget) {
    options.max_interleavings = budget;
    const std::uint64_t before = count();
    const core::ExploreResult result = core::Explorer(options).explore(program);
    EXPECT_EQ(result.interleavings, budget);
    EXPECT_FALSE(result.found_bug());
    return count() - before;
  };
  const std::uint64_t small = walk(n);
  const std::uint64_t large = walk(2 * n);
  return static_cast<double>(large - small) / static_cast<double>(n);
}

std::uint64_t heap_allocations() { return g_allocs.load(); }

/// Request records drawn from the engine's pools (every run publishes
/// its count).
std::uint64_t request_records() {
  return obs::Registry::instance()
      .counter("engine.pool.req_acquired")
      .value();
}

// The explore-adlb workload made 443 heap allocations per interleaving
// when every replay built its engine, tool stacks and tables from
// nothing; a warm context makes 31 (x86-64, GCC 12), 23 of them the
// program's own.
TEST(AllocSteadyState, ExploreAdlbInterleaving) {
  SKIP_WHEN_SANITIZED();
  ExplorerOptions options = pinned_options(4);
  options.policy = mpism::PolicyKind::kSeededRandom;
  options.policy_seed = 1;
  const double per =
      steady_per_interleaving(options, adlb_program, 500, heap_allocations);
  EXPECT_LE(per, 40.0);
}

// dist-fanout at 6 ranks (the campaign-fanout workload's program): 435
// allocations per interleaving before, 25 with a warm context.
TEST(AllocSteadyState, DistFanoutInterleaving) {
  SKIP_WHEN_SANITIZED();
  const double per = steady_per_interleaving(pinned_options(6), fanout_program,
                                             500, heap_allocations);
  EXPECT_LE(per, 32.0);
}

// A request gets a record only when it outlives its call. explore-adlb
// drew 78 records per interleaving when every blocking send and receive
// made one; only its receives that must wait keep one now. dist-fanout
// at 6 ranks drew 30, all blocking calls that complete in place, piggyback
// receives included.
TEST(AllocSteadyState, ExploreAdlbRequestRecords) {
  ExplorerOptions options = pinned_options(4);
  options.policy = mpism::PolicyKind::kSeededRandom;
  options.policy_seed = 1;
  const double per =
      steady_per_interleaving(options, adlb_program, 200, request_records);
  EXPECT_LE(per, 16.0);
}

TEST(AllocSteadyState, DistFanoutRequestRecords) {
  const double per = steady_per_interleaving(pinned_options(6), fanout_program,
                                             200, request_records);
  EXPECT_EQ(per, 0.0);
}

/// A fan-in that puts rank 0's matcher in lane mode on both sides for
/// any `per_sender` of 11 or more: rank 0 posts 3 × per_sender specific
/// receives before ranks 1-3 send to them, then ranks 1-3 queue
/// per_sender messages each (plus their piggyback messages) before rank 0
/// drains them with specific receives. Payloads are empty and the request
/// array lives on the stack, so the program itself allocates nothing. A
/// tail of six wildcard receives gives the walk its 90 interleavings
/// whatever the depth.
mpism::ProgramFn deep_fan_in(int per_sender) {
  return [per_sender](mpism::Proc& p) {
    const int queued = 3 * per_sender;
    if (p.rank() == 0) {
      std::array<mpism::RequestId, 96> reqs{};
      for (int i = 0; i < queued; ++i) reqs[i] = p.irecv(1 + i % 3, 8);
      p.barrier();
      p.waitall(std::span(reqs.data(), static_cast<std::size_t>(queued)));
      p.barrier();
      for (int i = 0; i < queued; ++i) p.recv(1 + i % 3, 7);
      for (int i = 0; i < 6; ++i) p.recv(mpism::kAnySource, 9);
    } else {
      p.barrier();
      for (int i = 0; i < per_sender; ++i) p.send(0, 8, {});
      for (int i = 0; i < per_sender; ++i) p.send(0, 7, {});
      p.barrier();
      for (int i = 0; i < 2; ++i) p.send(0, 9, {});
    }
  };
}

// Lane-mode matching (queues past 32 entries) keeps its tables, lane
// nodes and posted-lane nodes across runs: once warm, doubling the depth
// of every deep queue adds no allocation to an interleaving. What the
// walk does allocate per interleaving (DFS frames, collective
// piggybacks) is the same at both depths.
TEST(AllocSteadyState, DeepQueueLanesAllocateNothing) {
  SKIP_WHEN_SANITIZED();
  // The first walk in a process also registers metrics; pay that here so
  // neither measured depth does.
  steady_per_interleaving(pinned_options(4), deep_fan_in(16), 2,
                          heap_allocations);
  const double deep = steady_per_interleaving(pinned_options(4),
                                              deep_fan_in(16), 40,
                                              heap_allocations);
  const double deeper = steady_per_interleaving(pinned_options(4),
                                                deep_fan_in(32), 40,
                                                heap_allocations);
  EXPECT_EQ(deeper, deep);
}

// A warm context keeps at most one run's high-water storage: replaying
// the same schedules over and over must not grow what it retains.
TEST(AllocSteadyState, RetainedStorageDoesNotGrowAcross2000Replays) {
  SKIP_WHEN_SANITIZED();
  ExplorerOptions options = pinned_options(4);
  options.policy = mpism::PolicyKind::kSeededRandom;
  options.policy_seed = 1;
  options.max_interleavings = 64;
  std::vector<Schedule> schedules;
  core::Explorer(options).explore(
      adlb_program, [&schedules](const core::RunTrace&,
                                 const mpism::RunReport&,
                                 const Schedule& schedule) {
        schedules.push_back(schedule);
      });
  ASSERT_EQ(schedules.size(), 64u);

  ReplayContext context(options);
  SingleRun run;
  std::int64_t warm_bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    context.run(schedules[static_cast<std::size_t>(i) % schedules.size()],
                adlb_program, &run);
    ASSERT_TRUE(run.report.completed);
    if (i == 2 * static_cast<int>(schedules.size()) - 1) {
      warm_bytes = g_live_bytes.load();
    }
  }
  EXPECT_LE(g_live_bytes.load(), warm_bytes);
}

// ---------------------------------------------------------------------------
// State-bleed differential
// ---------------------------------------------------------------------------

using test::fingerprint;

Schedule forced(std::initializer_list<std::pair<core::EpochKey, int>> pins) {
  Schedule s;
  for (const auto& [key, src] : pins) s.forced[key] = src;
  return s;
}

/// The source the cancel scenario fires from inside its run.
mpism::CancelSource* g_cancel_target = nullptr;

/// Rank 0 issues 12 sends, each drained by a specific receive; the
/// fault plan below aborts rank 0 at its 9th operation, which no other
/// scenario's program reaches.
void long_program(mpism::Proc& p) {
  for (int i = 0; i < 6; ++i) {
    if (p.rank() == 0) {
      p.send(1, 5, mpism::pack<int>(i));
      p.send(2, 5, mpism::pack<int>(i));
    } else if (p.rank() <= 2) {
      p.recv(0, 5);
    }
  }
}

/// Everyone meets at a barrier, then rank 0 cancels the campaign while
/// ranks 1 and 2 wait for a message that never comes.
void cancel_program(mpism::Proc& p) {
  p.barrier();
  if (p.rank() == 0) {
    g_cancel_target->cancel("cancelled from inside the run");
    p.compute(1.0);  // unwinds: the run is cancelled
  } else {
    p.recv(0, 9);
  }
}

struct Scenario {
  const char* name;
  mpism::ProgramFn program;
  Schedule schedule;
  bool (*failed)(const mpism::RunReport&);
};

// One context replays a failing run of every kind, each followed by a
// clean, fully pinned schedule; every outcome must equal a fresh
// context's, and every pooled request and lane node must be back in its
// pool after the reset. Under the coop scheduler every run is
// deterministic and compared exactly; under the thread scheduler (the
// DAMPI_SCHED=thread sweep) a failing run's stopping
// point is timing-dependent, so those compare by verdict, while the
// clean runs after them — the state-bleed check proper — stay exact.
TEST(AllocStateBleed, FailingRunsLeaveNothingBehind) {
  ExplorerOptions options;
  options.nprocs = 3;
  options.max_run_ops = 400;  // the per-run watchdog the livelock trips
  std::string error;
  options.fault = mpism::parse_fault_plan("flaky@0:9:1", &error);
  ASSERT_NE(options.fault, nullptr) << error;
  auto source = std::make_shared<mpism::CancelSource>();
  options.cancel = source;
  const bool exact_failures =
      options.sched.kind == mpism::SchedulerKind::kCoop;

  // Fresh-context twin: its own fault plan (the context's fires once and
  // is then spent) and its own cancel source.
  ExplorerOptions fresh_options = options;
  fresh_options.fault = mpism::parse_fault_plan("flaky@0:9:1", &error);
  fresh_options.cancel = std::make_shared<mpism::CancelSource>();
  ExplorerOptions spent_options = options;  // shares the context's plan

  // The clean runs: fig3 with both wildcard receives pinned, and the
  // fault scenario's program (no wildcards), whose one-shot fault the
  // first scenario spends.
  const std::vector<std::pair<mpism::ProgramFn, Schedule>> clean_runs = {
      {workloads::fig3_benign, forced({{{1, 0}, 0}, {{1, 1}, 2}})},
      {long_program, Schedule{}},
  };
  const std::vector<Scenario> failing = {
      {"injected fault", long_program, Schedule{},
       [](const mpism::RunReport& r) {
         return !r.errors.empty() &&
                r.errors.front().message.find("fault injected") !=
                    std::string::npos;
       }},
      {"deadlock", workloads::wildcard_dependent_deadlock,
       forced({{{1, 0}, 2}}),
       [](const mpism::RunReport& r) { return r.deadlocked; }},
      {"program error", workloads::fig3_wildcard_bug, forced({{{1, 0}, 2}}),
       [](const mpism::RunReport& r) {
         return !r.errors.empty() &&
                r.errors.front().message == "fig3: x == 33";
       }},
      {"watchdog timeout", workloads::livelock, Schedule{},
       [](const mpism::RunReport& r) { return r.timed_out; }},
  };

  ReplayContext context(options);
  SingleRun run;  // recycled through every replay
  for (const Scenario& s : failing) {
    SCOPED_TRACE(s.name);
    context.run(s.schedule, s.program, &run);
    EXPECT_TRUE(s.failed(run.report)) << fingerprint(run.report);
    EXPECT_EQ(context.pooled_live(), 0u);
    const SingleRun fresh =
        core::run_guided_once(fresh_options, s.schedule, s.program);
    EXPECT_TRUE(s.failed(fresh.report)) << fingerprint(fresh.report);
    if (exact_failures) {
      EXPECT_EQ(fingerprint(run), fingerprint(fresh));
    }

    for (const auto& [program, schedule] : clean_runs) {
      context.run(schedule, program, &run);
      EXPECT_TRUE(run.report.ok()) << fingerprint(run.report);
      EXPECT_EQ(context.pooled_live(), 0u);
      EXPECT_EQ(fingerprint(run),
                fingerprint(core::run_guided_once(spent_options, schedule,
                                                  program)));
    }
  }

  // External cancel last: a campaign's source stays fired, so every later
  // run of the context is cancelled on entry, exactly like a fresh one.
  g_cancel_target = source.get();
  context.run(Schedule{}, cancel_program, &run);
  EXPECT_TRUE(run.report.cancelled);
  EXPECT_EQ(run.report.stop_reason, "cancelled from inside the run");
  EXPECT_EQ(context.pooled_live(), 0u);
  auto fresh_source = std::make_shared<mpism::CancelSource>();
  fresh_options.cancel = fresh_source;
  g_cancel_target = fresh_source.get();
  const SingleRun fresh =
      core::run_guided_once(fresh_options, Schedule{}, cancel_program);
  EXPECT_TRUE(fresh.report.cancelled);
  if (exact_failures) {
    EXPECT_EQ(fingerprint(run), fingerprint(fresh));
  }

  const auto& [program, schedule] = clean_runs.front();
  context.run(schedule, program, &run);
  EXPECT_TRUE(run.report.cancelled);
  EXPECT_EQ(context.pooled_live(), 0u);
  EXPECT_EQ(fingerprint(run), fingerprint(core::run_guided_once(
                                  fresh_options, schedule, program)));
}

// Self-runs draw wildcard matches from the seeded policy; a context must
// restart that stream (and the coop pick order) every run. Pinned to
// coop: under threads a self-run's matches race by design.
TEST(AllocStateBleed, SelfRunsReplayTheSameMatchStream) {
  ExplorerOptions options;
  options.nprocs = 4;
  options.sched.kind = mpism::SchedulerKind::kCoop;
  options.policy = mpism::PolicyKind::kSeededRandom;
  options.policy_seed = 3;
  options.sched.pick = mpism::SchedPolicy::kRandomSeeded;
  options.sched.seed = 5;
  const std::string fresh =
      fingerprint(core::run_guided_once(options, Schedule{}, adlb_program));
  ReplayContext context(options);
  SingleRun run;
  for (int i = 0; i < 3; ++i) {
    context.run(Schedule{}, adlb_program, &run);
    EXPECT_EQ(fingerprint(run), fresh) << "run " << i;
  }
}

// Engine::cancel ends only the run in progress: the engine's reset
// clears the verdict, so the next run on the same engine is clean and
// identical to a fresh engine's.
TEST(AllocStateBleed, EngineCancelDoesNotOutliveItsRun) {
  mpism::RunOptions options;
  options.nprocs = 3;
  mpism::Engine engine(options);
  const mpism::RunReport cancelled = engine.run([&engine](mpism::Proc& p) {
    p.barrier();
    if (p.rank() == 0) engine.cancel("engine cancel");
    p.barrier();
  });
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.stop_reason, "engine cancel");
  EXPECT_EQ(engine.pooled_live(), 0u);

  const mpism::RunReport again = engine.run(workloads::fig3_benign);
  mpism::Engine fresh(options);
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(fingerprint(again), fingerprint(fresh.run(workloads::fig3_benign)));
}

// ---------------------------------------------------------------------------
// Blocking point-to-point pin
// ---------------------------------------------------------------------------

/// One eager message of a soup phase.
struct SoupMessage {
  int src;
  int dst;
  int tag;
  int bytes;
};

/// How a rank takes its share of a soup phase.
enum class RecvStyle { kSpecific, kAnySource, kAnyAny, kProbeFirst };

/// How a pair phase's two partners exchange.
enum class PairStyle { kSsendThenRecv, kSendrecv, kSendrecvAnyAny, kSendRecv };

/// A barrier-ended phase of a blocking program. A soup phase has every
/// rank send its messages with blocking eager sends and then receive its
/// share in one style; a pair phase has disjoint partner pairs exchange
/// one message each way. Both complete in every matching order.
struct BlockingPhase {
  bool pairs = false;
  std::vector<SoupMessage> soup;
  std::vector<RecvStyle> recv_style;  ///< per rank (soup)
  std::vector<int> partner;           ///< per rank, -1 when unpaired
  std::vector<PairStyle> pair_style;  ///< per rank (pairs)
  bool iprobe = false;
};

struct BlockingScript {
  int nprocs = 2;
  std::vector<BlockingPhase> phases;
};

BlockingScript blocking_script(std::uint64_t seed) {
  Rng rng(seed);
  BlockingScript s;
  s.nprocs = 2 + static_cast<int>(rng.next_below(4));  // 2..5
  const auto n = static_cast<std::uint64_t>(s.nprocs);
  s.phases.resize(2 + rng.next_below(2));
  for (BlockingPhase& phase : s.phases) {
    phase.pairs = rng.next_bool(0.35);
    phase.iprobe = rng.next_bool(0.5);
    if (phase.pairs) {
      std::vector<int> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
      for (std::size_t i = n; i-- > 1;) {
        std::swap(order[i], order[rng.next_below(i + 1)]);
      }
      phase.partner.assign(n, -1);
      phase.pair_style.assign(n, PairStyle::kSendrecv);
      for (std::size_t i = 0; i + 1 < n; i += 2) {
        const auto a = static_cast<std::size_t>(order[i]);
        const auto b = static_cast<std::size_t>(order[i + 1]);
        phase.partner[a] = order[i + 1];
        phase.partner[b] = order[i];
        phase.pair_style[a] = phase.pair_style[b] =
            static_cast<PairStyle>(rng.next_below(4));
      }
      continue;
    }
    const std::uint64_t count = 1 + rng.next_below(2 * n);
    for (std::uint64_t m = 0; m < count; ++m) {
      SoupMessage msg;
      msg.src = static_cast<int>(rng.next_below(n));
      do {
        msg.dst = static_cast<int>(rng.next_below(n));
      } while (msg.dst == msg.src);
      msg.tag = static_cast<int>(rng.next_below(3));
      // ~1/4 of payloads spill past the 64-byte small-buffer arm.
      msg.bytes = rng.next_bool(0.25)
                      ? 64 + static_cast<int>(rng.next_below(192))
                      : 1 + static_cast<int>(rng.next_below(64));
      phase.soup.push_back(msg);
    }
    for (std::uint64_t r = 0; r < n; ++r) {
      phase.recv_style.push_back(static_cast<RecvStyle>(rng.next_below(4)));
    }
  }
  return s;
}

void run_blocking_script(mpism::Proc& p, const BlockingScript& s) {
  using mpism::kAnySource;
  using mpism::kAnyTag;
  const int me = p.rank();
  auto payload = [](int bytes, int tag) {
    return mpism::Bytes(static_cast<std::size_t>(bytes),
                        static_cast<std::byte>(tag + 1));
  };
  for (const BlockingPhase& phase : s.phases) {
    if (phase.iprobe) p.iprobe(kAnySource, kAnyTag);
    if (phase.pairs) {
      const int q = phase.partner[static_cast<std::size_t>(me)];
      const PairStyle style = phase.pair_style[static_cast<std::size_t>(me)];
      if (q >= 0) {
        switch (style) {
          case PairStyle::kSsendThenRecv:
            // The lower rank's ssend completes once the higher one has
            // posted its (wildcard) receive.
            if (me < q) {
              p.ssend(q, 7, payload(16, 7));
              p.recv(q, 7);
            } else {
              p.recv(kAnySource, 7);
              p.ssend(q, 7, payload(80, 7));
            }
            break;
          case PairStyle::kSendrecv:
            p.sendrecv(q, 8, payload(24, 8), q, 8, nullptr);
            break;
          case PairStyle::kSendrecvAnyAny:
            p.sendrecv(q, 8, payload(96, 8), kAnySource, kAnyTag, nullptr);
            break;
          case PairStyle::kSendRecv:
            p.send(q, 9, payload(8, 9));
            p.recv(q, 9);
            break;
        }
      }
    } else {
      for (const SoupMessage& m : phase.soup) {
        if (m.src == me) p.send(m.dst, m.tag, payload(m.bytes, m.tag));
      }
      const RecvStyle style = phase.recv_style[static_cast<std::size_t>(me)];
      for (const SoupMessage& m : phase.soup) {
        if (m.dst != me) continue;
        switch (style) {
          case RecvStyle::kSpecific: p.recv(m.src, m.tag); break;
          case RecvStyle::kAnySource: p.recv(kAnySource, m.tag); break;
          case RecvStyle::kAnyAny: p.recv(kAnySource, kAnyTag); break;
          case RecvStyle::kProbeFirst: {
            const mpism::Status st = p.probe(kAnySource, m.tag);
            p.recv(st.source, st.tag);
            break;
          }
        }
      }
    }
    p.barrier();
  }
}

// 300 seeded programs built from blocking send/recv/ssend/sendrecv,
// specific and wildcard receives and probes run under the DAMPI stack
// with the separate-message piggyback (one tool receive per user
// receive). Each program's self run and the guided replays forcing its
// first alternatives are fingerprinted into one digest, recorded at the
// commit before blocking calls stopped allocating request records: any
// drift in hook order, matching, virtual time, stats or verdicts moves
// it. The value assumes IEEE doubles and glibc's %a formatting (x86-64
// Linux).
TEST(RequestPathPin, BlockingProgramsFingerprintToThePinnedDigest) {
  constexpr std::uint64_t kPinnedDigest = 0x3b5854cfe59305c1ull;
  std::uint64_t digest = test::kDigestSeed;
  int runs = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const BlockingScript script = blocking_script(seed * 0x9e3779b97f4a7c15ull);
    ExplorerOptions options;
    options.nprocs = script.nprocs;
    options.transport = piggyback::TransportKind::kSeparateMessage;
    options.clock_mode =
        seed % 2 == 0 ? core::ClockMode::kLamport : core::ClockMode::kVector;
    options.sched.kind = mpism::SchedulerKind::kCoop;
    options.sched.pick = seed % 3 == 0 ? mpism::SchedPolicy::kRandomSeeded
                                       : mpism::SchedPolicy::kRoundRobin;
    options.sched.seed = seed;
    options.match =
        seed % 4 < 2 ? mpism::MatchKind::kIndexed : mpism::MatchKind::kLinear;
    options.policy = seed % 5 == 0 ? mpism::PolicyKind::kSeededRandom
                                   : mpism::PolicyKind::kLowestSource;
    options.policy_seed = seed;
    const mpism::ProgramFn program = [&script](mpism::Proc& p) {
      run_blocking_script(p, script);
    };
    const SingleRun self = core::run_guided_once(options, Schedule{}, program);
    ASSERT_TRUE(self.report.ok()) << "seed " << seed << ": "
                                  << fingerprint(self.report);
    digest = test::digest_step(digest, fingerprint(self));
    ++runs;
    int forced_runs = 0;
    for (const core::EpochRecord& epoch : self.trace.epochs) {
      for (const auto& [src, match] : epoch.alternatives) {
        if (forced_runs == 2) break;
        digest = test::digest_step(
            digest, fingerprint(core::run_guided_once(
                        options, forced({{epoch.key, src}}), program)));
        ++forced_runs;
        ++runs;
      }
    }
  }
  EXPECT_GT(runs, 300);
  EXPECT_EQ(digest, kPinnedDigest)
      << std::hex << "blocking-program fingerprints drifted: digest 0x"
      << digest << std::dec << " over " << runs << " runs";
}

// ---------------------------------------------------------------------------
// AddressSanitizer: recycled pool memory stays visible
// ---------------------------------------------------------------------------

TEST(AllocPoison, TouchingReleasedPoolMemoryIsReported) {
#if defined(__SANITIZE_ADDRESS__)
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mpism::SlabPool<std::uint64_t> pool;
        std::uint64_t* slot = pool.acquire(std::uint64_t{7});
        pool.release(slot);
        *static_cast<volatile std::uint64_t*>(slot) = 8;
      },
      "use-after-poison");
  EXPECT_DEATH(
      {
        mpism::BufferPool pool;
        mpism::Bytes buf(16);
        std::byte* stale = buf.data();
        pool.recycle(std::move(buf));
        *static_cast<volatile std::byte*>(stale) = std::byte{1};
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

}  // namespace
}  // namespace dampi
