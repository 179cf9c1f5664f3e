// Engine-lock equivalence suite (ctest label `enginelock`):
//
//  - coop pin: 600 randomized small programs run under the deterministic
//    coop scheduler (where the engine takes no lock) across the match
//    sweep, their RunReport fingerprints (doubles printed as %a, so
//    "identical" means identical) hashed into one digest that must equal
//    the one the sharded-lock coop engine produced;
//  - thread-scheduler stress: sharded-lock mode hammered with wildcard
//    fan-ins and all-pairs cross-rank churn under linear and indexed
//    matchers — the TSan workout for the shard array, the eventcount
//    parkers, and the cross-shard rendezvous handshake (label
//    `concurrency` puts it in the tier-1 sanitizer sweep);
//  - deadlock verdict parity: both lock modes reach the same verdict on
//    the deadlock patterns under both schedulers, bit-identical under
//    coop;
//  - observability: the sharded mode accounts lock acquisitions and
//    envelope inline hits in the metrics registry, and a coop run
//    accounts none (its engine is single-threaded by construction);
//    the per-sender message, envelope and leak counts sum to the same
//    totals under both schedulers.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "obs/metrics.hpp"
#include "support/digest.hpp"
#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using dampi::strfmt;
using mpism::Bytes;
using mpism::EngineLockKind;
using mpism::kAnySource;
using mpism::kAnyTag;
using mpism::MatchKind;
using mpism::pack;
using mpism::RequestId;

/// Every deterministic field of a RunReport, doubles in %a hex form
/// (wall_seconds is excluded by design — it is the one
/// non-deterministic field).
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

// ---------------------------------------------------------------------
// Randomized program generator: valid-by-construction message soup
// (receives posted before sends per phase) with wildcard phases, sync
// sends (the cross-shard rendezvous path), probes, and collectives.

struct ProgramCase {
  std::uint64_t seed;
  int nprocs;
  int phases;
  int messages_per_phase;
};

struct ScriptMessage {
  int src;
  int dst;
  int tag;
  bool synchronous;
  int bytes;  // payload size: straddles the 64-byte inline threshold
};

std::vector<std::vector<ScriptMessage>> build_script(const ProgramCase& c) {
  Rng rng(c.seed);
  std::vector<std::vector<ScriptMessage>> phases(
      static_cast<std::size_t>(c.phases));
  for (auto& phase : phases) {
    const int count =
        1 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(c.messages_per_phase)));
    for (int m = 0; m < count; ++m) {
      ScriptMessage msg;
      msg.src = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(c.nprocs)));
      do {
        msg.dst = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(c.nprocs)));
      } while (msg.dst == msg.src);
      msg.tag = static_cast<int>(rng.next_below(3));
      msg.synchronous = rng.next_bool(0.3);
      // ~1/4 of payloads spill past the 64-byte small-buffer arm.
      msg.bytes = rng.next_bool(0.25)
                      ? 64 + static_cast<int>(rng.next_below(192))
                      : 1 + static_cast<int>(rng.next_below(64));
      phase.push_back(msg);
    }
  }
  return phases;
}

void run_script(mpism::Proc& p,
                const std::vector<std::vector<ScriptMessage>>& script,
                std::uint64_t seed) {
  Rng rng(seed ^ 0xabcdef);
  int phase_index = 0;
  for (const auto& phase : script) {
    const bool wildcard_phase = rng.next_bool(0.5);
    std::vector<RequestId> recvs;
    for (const ScriptMessage& m : phase) {
      if (m.dst != p.rank()) continue;
      recvs.push_back(p.irecv(wildcard_phase ? kAnySource : m.src, kAnyTag));
    }
    std::vector<RequestId> sends;
    for (const ScriptMessage& m : phase) {
      if (m.src != p.rank()) continue;
      Bytes payload(static_cast<std::size_t>(m.bytes),
                    static_cast<std::byte>(m.tag + 1));
      sends.push_back(m.synchronous
                          ? p.issend(m.dst, m.tag, std::move(payload))
                          : p.isend(m.dst, m.tag, std::move(payload)));
    }
    if (rng.next_bool(0.5)) p.iprobe(kAnySource, kAnyTag);
    p.waitall(recvs);
    p.waitall(sends);
    if (phase_index % 2 == 0) {
      p.barrier();
    } else {
      p.allreduce_u64(1, mpism::ReduceOp::kSumU64);
    }
    ++phase_index;
  }
}

mpism::RunOptions case_options(const ProgramCase& c, EngineLockKind lock,
                               MatchKind match,
                               mpism::SchedulerKind sched_kind) {
  mpism::RunOptions options;
  options.nprocs = c.nprocs;
  options.engine_lock = lock;
  options.match = match;
  options.sched.kind = sched_kind;
  options.sched.seed = c.seed;
  if (sched_kind == mpism::SchedulerKind::kCoop) {
    options.sched.pick = (c.seed % 2 == 0)
                             ? mpism::SchedPolicy::kRoundRobin
                             : mpism::SchedPolicy::kRandomSeeded;
  }
  switch (c.seed % 3) {
    case 0: options.policy = mpism::PolicyKind::kLowestSource; break;
    case 1: options.policy = mpism::PolicyKind::kFifoArrival; break;
    default: options.policy = mpism::PolicyKind::kSeededRandom; break;
  }
  options.policy_seed = c.seed + 1;
  return options;
}

// Coop runs are deterministic, so 600 randomized programs across the
// match sweep fingerprint to one fixed digest. It was recorded from the
// coop engine while it still took its sharded (and, bit-identically,
// global) lock, before the lock began following the scheduler: any
// behavioural drift of the lock-free coop engine — matching order,
// vtime accounting, message counts, verdicts — changes it. The value
// assumes IEEE doubles and glibc's %a formatting (x86-64 Linux).
TEST(EngineLockDifferential, CoopFingerprintsIdenticalAcrossMatchSweep) {
  constexpr std::uint64_t kLockedCoopDigest = 0x894aa75d578ebd01ull;
  std::uint64_t digest = kDigestSeed;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    ProgramCase c;
    c.seed = seed * 2654435761u;
    c.nprocs = 2 + static_cast<int>(seed % 5);  // 2..6
    c.phases = 2;
    c.messages_per_phase = 2 * c.nprocs;
    const auto script = build_script(c);
    const auto program = [&script, &c](mpism::Proc& p) {
      run_script(p, script, c.seed + static_cast<std::uint64_t>(p.rank()));
    };
    for (const MatchKind match : {MatchKind::kLinear, MatchKind::kIndexed}) {
      const auto report = run_program(
          case_options(c, EngineLockKind::kSharded, match,
                       mpism::SchedulerKind::kCoop),
          program);
      ASSERT_TRUE(report.ok())
          << "seed " << seed << ": " << report.deadlock_detail;
      digest = digest_step(digest, fingerprint(report));
      ++checked;
    }
  }
  EXPECT_EQ(checked, 600);
  EXPECT_EQ(digest, kLockedCoopDigest)
      << std::hex << "coop fingerprints drifted: digest 0x" << digest;
}

// Thread-scheduler differential: match order is host-timing-dependent,
// so only schedule-independent invariants are comparable — but those
// must agree between lock modes.
TEST(EngineLockDifferential, ThreadSchedulerInvariantsAgree) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ProgramCase c;
    c.seed = seed * 1315423911u;
    c.nprocs = 2 + static_cast<int>(seed % 4);  // 2..5
    c.phases = 2;
    c.messages_per_phase = 2 * c.nprocs;
    const auto script = build_script(c);
    std::uint64_t expected_messages = 0;
    for (const auto& phase : script) expected_messages += phase.size();
    const auto program = [&script, &c](mpism::Proc& p) {
      run_script(p, script, c.seed + static_cast<std::uint64_t>(p.rank()));
    };
    for (const EngineLockKind lock :
         {EngineLockKind::kGlobal, EngineLockKind::kSharded}) {
      const auto report = run_program(
          case_options(c, lock, MatchKind::kIndexed,
                       mpism::SchedulerKind::kThread),
          program);
      ASSERT_TRUE(report.completed)
          << mpism::engine_lock_spec(lock) << " seed " << seed << ": "
          << report.deadlock_detail;
      ASSERT_TRUE(report.errors.empty())
          << mpism::engine_lock_spec(lock) << " seed " << seed << ": "
          << report.errors[0].message;
      EXPECT_EQ(report.messages_sent, expected_messages)
          << mpism::engine_lock_spec(lock) << " seed " << seed;
      EXPECT_EQ(report.comm_leaks, 0) << mpism::engine_lock_spec(lock);
      EXPECT_EQ(report.request_leaks, 0u) << mpism::engine_lock_spec(lock);
    }
  }
}

// ---------------------------------------------------------------------
// Sharded-mode stress under real OS threads — the TSan target. Two
// traffic shapes hammer the shard array from every rank at once:
//
//  - wildcard fan-in: every rank floods rank 0, which drains the pile
//    through ANY_SOURCE receives (all senders contend on shard 0 while
//    rank 0 holds and re-drops it in blocking_wait);
//  - all-pairs churn: every rank posts a receive from and sends to
//    every other rank each round, with sync sends mixed in so the
//    cross-shard rendezvous completion handshake runs constantly.

void wildcard_fanin(mpism::Proc& p, int rounds, int senders_per_round) {
  const int n = p.size();
  for (int round = 0; round < rounds; ++round) {
    if (p.rank() == 0) {
      std::vector<RequestId> recvs;
      for (int i = 0; i < (n - 1) * senders_per_round; ++i) {
        recvs.push_back(p.irecv(kAnySource, kAnyTag));
      }
      p.waitall(recvs);
    } else {
      std::vector<RequestId> sends;
      for (int i = 0; i < senders_per_round; ++i) {
        // Alternate inline-fit and heap-spill payload sizes.
        const std::size_t bytes = (i % 2 == 0) ? 16 : 96;
        Bytes payload(bytes, static_cast<std::byte>(p.rank()));
        sends.push_back(i % 3 == 0 ? p.issend(0, round, std::move(payload))
                                   : p.isend(0, round, std::move(payload)));
      }
      p.waitall(sends);
    }
    p.barrier();
  }
}

void all_pairs_churn(mpism::Proc& p, int rounds) {
  const int n = p.size();
  for (int round = 0; round < rounds; ++round) {
    std::vector<RequestId> recvs;
    for (int peer = 0; peer < n; ++peer) {
      if (peer == p.rank()) continue;
      recvs.push_back(p.irecv(peer, kAnyTag));
    }
    std::vector<RequestId> sends;
    for (int peer = 0; peer < n; ++peer) {
      if (peer == p.rank()) continue;
      Bytes payload(static_cast<std::size_t>(8 + 8 * ((p.rank() + round) % 12)),
                    static_cast<std::byte>(round));
      sends.push_back(((p.rank() + peer + round) % 4 == 0)
                          ? p.issend(peer, round % 3, std::move(payload))
                          : p.isend(peer, round % 3, std::move(payload)));
    }
    p.iprobe(kAnySource, kAnyTag);
    p.waitall(recvs);
    p.waitall(sends);
    if (round % 2 == 0) p.allreduce_u64(1, mpism::ReduceOp::kSumU64);
  }
}

TEST(EngineLockStress, ShardedWildcardFanInUnderThreads) {
  for (const MatchKind match : {MatchKind::kLinear, MatchKind::kIndexed}) {
    mpism::RunOptions options;
    options.nprocs = 6;
    options.engine_lock = EngineLockKind::kSharded;
    options.match = match;
    options.sched.kind = mpism::SchedulerKind::kThread;
    const auto report = run_program(options, [](mpism::Proc& p) {
      wildcard_fanin(p, /*rounds=*/6, /*senders_per_round=*/8);
    });
    ASSERT_TRUE(report.ok())
        << mpism::match_spec(match) << ": " << report.deadlock_detail;
    EXPECT_EQ(report.messages_sent, 6u * 5u * 8u) << mpism::match_spec(match);
  }
}

TEST(EngineLockStress, ShardedAllPairsChurnUnderThreads) {
  for (const MatchKind match : {MatchKind::kLinear, MatchKind::kIndexed}) {
    mpism::RunOptions options;
    options.nprocs = 5;
    options.engine_lock = EngineLockKind::kSharded;
    options.match = match;
    options.sched.kind = mpism::SchedulerKind::kThread;
    const auto report = run_program(options, [](mpism::Proc& p) {
      all_pairs_churn(p, /*rounds=*/10);
    });
    ASSERT_TRUE(report.ok())
        << mpism::match_spec(match) << ": " << report.deadlock_detail;
    EXPECT_EQ(report.messages_sent, 10u * 5u * 4u) << mpism::match_spec(match);
    EXPECT_EQ(report.request_leaks, 0u);
  }
}

// ---------------------------------------------------------------------
// Deadlock verdict parity between lock modes: exact-deadlock detection
// moved from "hold the one mutex" to "escalate to all shards"; both
// paths must reach the same verdict, and under coop the whole report
// (detail text included) must be bit-identical.
TEST(EngineLockDifferential, DeadlockVerdictParity) {
  struct Pattern {
    const char* name;
    mpism::ProgramFn fn;
    int nprocs;
  };
  const Pattern patterns[] = {
      {"simple_deadlock", workloads::simple_deadlock, 2},
      {"wildcard_dependent_deadlock",
       workloads::wildcard_dependent_deadlock, 3},
  };
  for (const auto& pat : patterns) {
    for (const auto sched_kind : {mpism::SchedulerKind::kThread,
                                  mpism::SchedulerKind::kCoop}) {
      std::optional<std::string> coop_fp;
      for (const EngineLockKind lock :
           {EngineLockKind::kGlobal, EngineLockKind::kSharded}) {
        mpism::RunOptions options;
        options.nprocs = pat.nprocs;
        options.engine_lock = lock;
        options.sched.kind = sched_kind;
        options.policy = mpism::PolicyKind::kFifoArrival;
        const auto report = run_program(options, pat.fn);
        if (std::string(pat.name) == "simple_deadlock") {
          EXPECT_TRUE(report.deadlocked)
              << pat.name << " " << mpism::engine_lock_spec(lock);
        }
        if (sched_kind == mpism::SchedulerKind::kCoop) {
          const std::string fp = fingerprint(report);
          if (!coop_fp.has_value()) {
            coop_fp = fp;
          } else {
            EXPECT_EQ(fp, *coop_fp)
                << pat.name << ": lock modes disagree under coop";
          }
        }
      }
    }
  }
}

// The sharded engine publishes lock and envelope accounting: a run must
// acquire shards, and small payloads must land in the inline arm.
TEST(EngineLockObs, ShardedRunAccountsLockAndInlineTraffic) {
  auto& reg = obs::Registry::instance();
  reg.reset();
  mpism::RunOptions options;
  options.nprocs = 4;
  options.engine_lock = EngineLockKind::kSharded;
  options.sched.kind = mpism::SchedulerKind::kThread;
  const auto report = run_program(options, [](mpism::Proc& p) {
    all_pairs_churn(p, /*rounds=*/4);
  });
  ASSERT_TRUE(report.ok()) << report.deadlock_detail;
  EXPECT_GT(reg.counter("engine.lock.acquired").value(), 0u);
  EXPECT_GT(reg.counter("engine.lock.all_shards").value(), 0u);
  EXPECT_GT(reg.counter("engine.envelope.inline_hits").value(), 0u);
  reg.reset();
}

// The lock follows the scheduler that was actually built: a coop engine
// runs every rank on one thread and takes no lock at all — not even the
// all-shards sections of its collectives.
TEST(EngineLockObs, CoopRunTakesNoLocks) {
  auto& reg = obs::Registry::instance();
  reg.reset();
  mpism::RunOptions options;
  options.nprocs = 4;
  options.engine_lock = EngineLockKind::kSharded;
  options.sched.kind = mpism::SchedulerKind::kCoop;
  const auto report = run_program(options, [](mpism::Proc& p) {
    all_pairs_churn(p, /*rounds=*/4);
  });
  ASSERT_TRUE(report.ok()) << report.deadlock_detail;
  EXPECT_EQ(reg.counter("engine.lock.acquired").value(), 0u);
  EXPECT_EQ(reg.counter("engine.lock.all_shards").value(), 0u);
  reg.reset();
}

// The per-sender counts are plain PerRank fields summed at report and
// publish time: a DAMPI-instrumented run (piggybacks travel as tool
// messages) of a wildcard-free ring must report the same totals on the
// coop engine, which bumps them with plain stores, and on OS threads.
TEST(EngineLockObs, PerSenderCountsAgreeAcrossSchedulers) {
  auto ring = [](mpism::Proc& p) {
    const int next = (p.rank() + 1) % p.size();
    const int prev = (p.rank() + p.size() - 1) % p.size();
    for (int round = 0; round < 3; ++round) {
      p.send(next, 1, pack<int>(round));  // inline payload
      p.send(next, 2, Bytes(200));         // spills to the heap
      p.recv(prev, 1);
      p.recv(prev, 2);
    }
    p.isend(next, 3, pack<int>(7));  // never completed: one leak per rank
    p.recv(prev, 3);
  };
  struct Totals {
    std::uint64_t messages = 0;
    std::uint64_t tool_messages = 0;
    std::uint64_t leaks = 0;
    std::uint64_t inline_hits = 0;
    std::uint64_t heap_spills = 0;
  };
  auto& reg = obs::Registry::instance();
  std::vector<Totals> totals;
  for (const mpism::SchedulerKind kind :
       {mpism::SchedulerKind::kCoop, mpism::SchedulerKind::kThread}) {
    reg.reset();
    core::ExplorerOptions options = explorer_options(4);
    options.sched.kind = kind;
    const core::SingleRun run = run_dampi_once(options, {}, ring);
    ASSERT_TRUE(run.report.ok()) << run.report.deadlock_detail;
    totals.push_back({run.report.messages_sent,
                      run.report.stats.tool_messages,
                      run.report.request_leaks,
                      reg.counter("engine.envelope.inline_hits").value(),
                      reg.counter("engine.envelope.heap_spills").value()});
  }
  reg.reset();
  const Totals& coop = totals[0];
  const Totals& thread = totals[1];
  EXPECT_EQ(coop.messages, 4u * 7u);
  EXPECT_GT(coop.tool_messages, 0u);
  EXPECT_EQ(coop.leaks, 4u);
  EXPECT_EQ(coop.heap_spills, 4u * 3u);
  EXPECT_GT(coop.inline_hits, 0u);
  EXPECT_EQ(thread.messages, coop.messages);
  EXPECT_EQ(thread.tool_messages, coop.tool_messages);
  EXPECT_EQ(thread.leaks, coop.leaks);
  EXPECT_EQ(thread.inline_hits, coop.inline_hits);
  EXPECT_EQ(thread.heap_spills, coop.heap_spills);
}

}  // namespace
}  // namespace dampi::test
