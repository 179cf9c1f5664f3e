// Partial-order reduction suite (ctest label `por`):
//
//  - unit coverage of the independence relation's dependent cases
//    (Lamport fallback, same rank, contested sender, receiver
//    involvement, causal order) and its one independent case;
//  - exact interleaving counts on the disjoint fan-in-groups fixture:
//    POR off walks the 2^k cross-product, sleep-set pruning walks
//    k+1 runs with the same per-epoch outcome sets;
//  - the adversarial all-pairs fixture where nothing commutes and sleep
//    must equal off run-for-run;
//  - commutation property: for randomized programs, every pair the
//    relation calls independent really commutes — forcing both flips in
//    either schedule-construction order yields bit-identical reports;
//  - a 64-seed differential (thread|coop x linear|indexed, vector
//    clocks): same bug set, same per-epoch outcome sets, never more
//    interleavings than POR off;
//  - checkpoint round-trip of sleep sets, footprints, and pending-sleep
//    frames (the kill/resume exactness surface).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strutil.hpp"
#include "core/checkpoint.hpp"
#include "core/por.hpp"
#include "core/shard.hpp"
#include "support/program_gen.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::ClockMode;
using core::DecisionFootprint;
using core::EpochKey;
using core::Explorer;
using core::ExplorerOptions;
using core::PorMode;
using core::Schedule;
using dampi::strfmt;
using mpism::MatchKind;
using mpism::SchedulerKind;

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
// Independence relation unit cases.

DecisionFootprint fp(int rank, std::vector<mpism::Rank> candidates,
                     std::vector<std::uint64_t> vc,
                     mpism::Tag tag = mpism::kAnyTag,
                     mpism::CommId comm = mpism::kCommWorld) {
  DecisionFootprint f;
  f.rank = rank;
  f.comm = comm;
  f.tag = tag;
  f.candidates = std::move(candidates);
  f.vc = std::move(vc);
  return f;
}

TEST(Independence, LamportModeIsAlwaysDependent) {
  // No vector evidence → conservative fallback, nothing prunes.
  EXPECT_FALSE(core::independent(fp(0, {2}, {}), fp(1, {3}, {})));
  EXPECT_FALSE(core::independent(fp(0, {2}, {1, 0, 0, 0}), fp(1, {3}, {})));
}

TEST(Independence, SameRankIsDependent) {
  EXPECT_FALSE(core::independent(fp(0, {2}, {1, 0, 0, 0}),
                                 fp(0, {3}, {2, 0, 0, 0})));
}

TEST(Independence, ContestedSenderIsDependent) {
  // Source 2 feeds both decisions on compatible channels.
  EXPECT_FALSE(core::independent(fp(0, {2, 3}, {5, 0, 0, 0, 0}),
                                 fp(1, {2, 4}, {0, 5, 0, 0, 0})));
  // A wildcard tag is compatible with any concrete tag.
  EXPECT_FALSE(core::independent(
      fp(0, {2, 3}, {5, 0, 0, 0, 0}, /*tag=*/7),
      fp(1, {2, 4}, {0, 5, 0, 0, 0}, mpism::kAnyTag)));
  // Distinct concrete tags cannot contest a message — independent.
  EXPECT_TRUE(core::independent(fp(0, {2, 3}, {5, 0, 0, 0, 0}, /*tag=*/7),
                                fp(1, {2, 4}, {0, 5, 0, 0, 0}, /*tag=*/8)));
}

TEST(Independence, ReceiverInvolvementIsDependent) {
  // Decision b may bind a send from a's receiver rank 0: a's outcome
  // shapes what rank 0 does next, which can change what b sees.
  EXPECT_FALSE(core::independent(fp(0, {2}, {5, 0, 0, 0}),
                                 fp(1, {0, 3}, {0, 5, 0, 0})));
}

TEST(Independence, CausalOrderIsDependent) {
  // b's clock has caught up with a's own component: a happened before b.
  EXPECT_FALSE(core::independent(fp(0, {2}, {5, 0, 0, 0}),
                                 fp(1, {3}, {6, 9, 0, 0})));
}

TEST(Independence, DisjointConcurrentDecisionsCommute) {
  EXPECT_TRUE(core::independent(fp(0, {2}, {5, 0, 0, 0}),
                                fp(1, {3}, {4, 9, 0, 0})));
}

// ---------------------------------------------------------------------
// Whole-walk sweeps.

struct SweepResult {
  core::ExploreResult result;
  std::set<std::string> bug_keys;
  /// Per-epoch outcome basis: every matched source each decision took
  /// across the whole walk. POR preserves this set (and the bug set);
  /// only the joint cross-product shrinks.
  std::map<EpochKey, std::set<int>> outcomes;
};

SweepResult sweep(const ExplorerOptions& options,
                  const mpism::ProgramFn& program) {
  SweepResult s;
  Explorer explorer(options);
  s.result = explorer.explore(
      program, [&s](const core::RunTrace& trace, const mpism::RunReport&,
                    const Schedule&) {
        for (const auto& e : trace.epochs) {
          if (e.matched_src_world >= 0) {
            s.outcomes[e.key].insert(e.matched_src_world);
          }
        }
      });
  for (const auto& bug : s.result.bugs) {
    s.bug_keys.insert(core::bug_key(bug));
  }
  return s;
}

ExplorerOptions vector_options(int nprocs, PorMode por) {
  ExplorerOptions options = explorer_options(nprocs);
  options.clock_mode = ClockMode::kVector;
  options.por = por;
  return options;
}

TEST(Por, FanInGroupsPrunesTheCrossProduct) {
  // k disjoint groups = k commuting binary decisions: off walks 2^k,
  // sleep needs one extra run per flip beyond the self-run.
  for (const int k : {2, 3, 4}) {
    SCOPED_TRACE(strfmt("k=%d", k));
    const auto program = [k](mpism::Proc& p) {
      workloads::fan_in_groups(p, k);
    };
    const auto off = sweep(vector_options(3 * k, PorMode::kOff), program);
    const auto sleep = sweep(vector_options(3 * k, PorMode::kSleep), program);

    EXPECT_EQ(off.result.interleavings, 1u << k);
    EXPECT_EQ(sleep.result.interleavings, static_cast<std::uint64_t>(k + 1));
    EXPECT_GT(sleep.result.por_pruned, 0u);
    EXPECT_EQ(off.result.por_pruned, 0u);

    EXPECT_EQ(off.bug_keys, sleep.bug_keys);
    EXPECT_EQ(off.outcomes, sleep.outcomes);
    // Both receives per root are epochs; flipping the first hands the
    // leftover to the second, so every outcome set holds both senders.
    ASSERT_EQ(sleep.outcomes.size(), static_cast<std::size_t>(2 * k));
    for (const auto& [key, sources] : sleep.outcomes) {
      EXPECT_EQ(sources.size(), 2u) << "rank " << key.rank;
    }
  }
}

TEST(Por, LamportModePrunesNothingEvenUnderSleep) {
  // Default clocks record no vectors, so the relation has no evidence
  // and POR sleep must walk exactly the off cross-product.
  const auto program = [](mpism::Proc& p) {
    workloads::fan_in_groups(p, 3);
  };
  ExplorerOptions options = explorer_options(9);
  options.por = PorMode::kSleep;
  const auto lamport = sweep(options, program);
  EXPECT_EQ(lamport.result.interleavings, 8u);
  EXPECT_EQ(lamport.result.por_pruned, 0u);
}

TEST(Por, AllPairsChurnPrunesNothing) {
  // Every candidate set overlaps with every other: nothing commutes,
  // and sleep must match off run-for-run. The single-root fan-ins are
  // all-dependent too: every decision contests the same receiver.
  struct Case {
    const char* name;
    int nprocs;
    mpism::ProgramFn program;
  };
  const Case cases[] = {
      {"all-pairs-churn", 3,
       [](mpism::Proc& p) { workloads::all_pairs_churn(p, 1); }},
      {"fan-in", 4, [](mpism::Proc& p) { workloads::fan_in_rounds(p, 2); }},
      {"dist-fanout", 4,
       [](mpism::Proc& p) { workloads::dist_fanout(p, 2, 5.0); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto off = sweep(vector_options(c.nprocs, PorMode::kOff), c.program);
    const auto sleep =
        sweep(vector_options(c.nprocs, PorMode::kSleep), c.program);
    EXPECT_EQ(off.result.interleavings, sleep.result.interleavings);
    EXPECT_EQ(sleep.result.por_pruned, 0u);
    EXPECT_GT(sleep.result.por_dependent_pairs, 0u);
    EXPECT_EQ(off.bug_keys, sleep.bug_keys);
    EXPECT_EQ(off.outcomes, sleep.outcomes);
  }
}

// ---------------------------------------------------------------------
// Commutation property: pairs the relation calls independent really do
// commute — forcing both flips is feasible and the result does not
// depend on the order the schedule was assembled in.

TEST(Por, IndependentPairsCommuteOnRandomPrograms) {
  // Random soups on few ranks are all-dependent (every candidate set
  // overlaps), so the sweep mixes wider random programs with the
  // disjoint-groups fixture that is guaranteed to contain commuting
  // pairs — the >0 assertion below is never vacuous.
  std::vector<std::pair<int, mpism::ProgramFn>> programs;
  programs.emplace_back(6, [](mpism::Proc& p) {
    workloads::fan_in_groups(p, 2);
  });
  programs.emplace_back(9, [](mpism::Proc& p) {
    workloads::fan_in_groups(p, 3);
  });
  std::vector<GeneratedProgram> generated;
  generated.reserve(24);
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    generated.push_back(generate_program(seed, 6, 8));
  }
  for (const GeneratedProgram& prog : generated) {
    programs.emplace_back(prog.nprocs, [&prog](mpism::Proc& p) {
      run_generated(p, prog);
    });
  }

  int pairs_checked = 0;
  for (std::size_t pi = 0; pi < programs.size(); ++pi) {
    const int nprocs = programs[pi].first;
    const mpism::ProgramFn& program = programs[pi].second;
    const std::size_t seed = pi;  // for failure messages

    ExplorerOptions options = vector_options(nprocs, PorMode::kOff);
    options.sched.kind = SchedulerKind::kCoop;
    const auto self = run_dampi_once(options, Schedule{}, program);

    for (std::size_t i = 0; i < self.trace.epochs.size(); ++i) {
      for (std::size_t j = i + 1; j < self.trace.epochs.size(); ++j) {
        const auto& a = self.trace.epochs[i];
        const auto& b = self.trace.epochs[j];
        if (a.alternatives.empty() || b.alternatives.empty()) continue;
        if (!core::independent(core::epoch_footprint(a),
                               core::epoch_footprint(b))) {
          continue;
        }
        const mpism::Rank alt_a = a.alternatives.begin()->first;
        const mpism::Rank alt_b = b.alternatives.begin()->first;

        Schedule ab;
        ab.forced[a.key] = alt_a;
        ab.forced[b.key] = alt_b;
        Schedule ba;
        ba.forced[b.key] = alt_b;
        ba.forced[a.key] = alt_a;

        const auto run_ab = run_dampi_once(options, ab, program);
        const auto run_ba = run_dampi_once(options, ba, program);

        // Both flips honored simultaneously (the pair is feasible)...
        const auto* ea = find_epoch(run_ab.trace, a.key.rank, a.key.nd_index);
        const auto* eb = find_epoch(run_ab.trace, b.key.rank, b.key.nd_index);
        ASSERT_NE(ea, nullptr) << "seed " << seed;
        ASSERT_NE(eb, nullptr) << "seed " << seed;
        EXPECT_EQ(ea->matched_src_world, alt_a) << "seed " << seed;
        EXPECT_EQ(eb->matched_src_world, alt_b) << "seed " << seed;
        // ...and construction order is invisible, bit for bit.
        EXPECT_EQ(fingerprint(run_ab.report), fingerprint(run_ba.report))
            << "seed " << seed;
        ++pairs_checked;
      }
    }
  }
  // The generator must actually exercise the relation.
  EXPECT_GT(pairs_checked, 0);
}

// ---------------------------------------------------------------------
// 64-seed differential: POR sleep ≡ POR off on bug sets and
// per-epoch outcome sets, never with more interleavings, across the
// scheduler x matcher grid under vector clocks (the mode where pruning
// actually fires).

TEST(Por, DifferentialSleepEqualsOffAcrossSchedAndMatch) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const bool coop = (seed % 2) == 1;
    const int nprocs = 3 + static_cast<int>(seed % 2);
    const GeneratedProgram prog = generate_program(seed, nprocs, 5);
    const auto program = [&prog](mpism::Proc& p) { run_generated(p, prog); };

    ExplorerOptions off_options = vector_options(nprocs, PorMode::kOff);
    off_options.sched.kind =
        coop ? SchedulerKind::kCoop : SchedulerKind::kThread;
    off_options.match =
        (seed / 2) % 2 == 0 ? MatchKind::kLinear : MatchKind::kIndexed;
    ExplorerOptions sleep_options = off_options;
    sleep_options.por = PorMode::kSleep;

    const auto off = sweep(off_options, program);
    const auto sleep = sweep(sleep_options, program);

    EXPECT_EQ(off.bug_keys, sleep.bug_keys) << "seed " << seed;
    EXPECT_EQ(off.outcomes, sleep.outcomes) << "seed " << seed;
    EXPECT_LE(sleep.result.interleavings, off.result.interleavings)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Distributed campaigns under POR sleep: sharding must not resurrect
// schedules the sequential sleep walk prunes. Full-depth shard
// skeletons carry the frontier's seen sets into every worker's harvest,
// and the coordinator dedups escapes by canonical site id (commuting
// prefix decisions dropped), so the campaign lands on exactly the
// sequential count.

/// The coordinator's shard/escape loop driven in-process (the same
/// shape as test_dist's harness), accumulating the POR sweep surfaces.
SweepResult sweep_sharded(const ExplorerOptions& base,
                          const mpism::ProgramFn& program,
                          std::size_t max_shards) {
  SweepResult s;
  const auto observe = [&s](const core::RunTrace& trace,
                            const mpism::RunReport&, const Schedule&) {
    for (const auto& e : trace.epochs) {
      if (e.matched_src_world >= 0) {
        s.outcomes[e.key].insert(e.matched_src_world);
      }
    }
  };

  ExplorerOptions disc = base;
  disc.discovery_only = true;
  core::ExploreResult discovered = Explorer(disc).explore(program, observe);
  const std::string fp = core::options_fingerprint(base);
  core::Checkpoint root;
  root.fingerprint = fp;
  root.frames = discovered.frontier;

  core::CampaignMerge merge(std::move(discovered), base.por);
  std::deque<core::Checkpoint> queue;
  for (core::Checkpoint& cp :
       core::split_frontier(root, max_shards, base.por)) {
    merge.register_shard_sites(cp);
    queue.push_back(std::move(cp));
  }
  while (!queue.empty()) {
    core::Checkpoint shard = std::move(queue.front());
    queue.pop_front();
    std::vector<core::EscapedAlt> escapes;
    ExplorerOptions options = base;
    options.resume_from =
        std::make_shared<const core::Checkpoint>(std::move(shard));
    options.on_escape = [&escapes](const core::EscapedAlt& e) {
      escapes.push_back(e);
    };
    merge.add(Explorer(options).explore(program, observe));
    for (const core::EscapedAlt& e : escapes) {
      if (!merge.escape_is_new(e)) continue;
      core::Checkpoint next = core::make_escape_shard(e, fp);
      merge.register_shard_sites(next);
      queue.push_back(std::move(next));
    }
  }
  s.result = merge.finish();
  for (const auto& bug : s.result.bugs) {
    s.bug_keys.insert(core::bug_key(bug));
  }
  return s;
}

TEST(Por, ShardedCampaignMatchesSequentialSleep) {
  const auto program = [](mpism::Proc& p) {
    workloads::fan_in_groups(p, 3);
  };
  const ExplorerOptions options = vector_options(9, PorMode::kSleep);
  const auto seq = sweep(options, program);
  ASSERT_EQ(seq.result.interleavings, 4u);  // the pruned baseline

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                   std::size_t{0}}) {
    const auto campaign = sweep_sharded(options, program, shards);
    EXPECT_EQ(campaign.result.interleavings, seq.result.interleavings)
        << "shards=" << shards;
    EXPECT_EQ(campaign.bug_keys, seq.bug_keys) << "shards=" << shards;
    EXPECT_EQ(campaign.outcomes, seq.outcomes) << "shards=" << shards;
  }
}

TEST(Por, ShardedSleepDifferentialAgainstSequentialOff) {
  // Campaign-level soundness on generated programs: the sharded sleep
  // walk keeps the off walk's bug sets and outcome basis while never
  // exploring more interleavings.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const int nprocs = 4 + static_cast<int>(seed % 3);
    const GeneratedProgram prog = generate_program(seed, nprocs, 6);
    const auto program = [&prog](mpism::Proc& p) { run_generated(p, prog); };

    const auto off = sweep(vector_options(nprocs, PorMode::kOff), program);
    const auto campaign =
        sweep_sharded(vector_options(nprocs, PorMode::kSleep), program,
                      2 + seed % 2);

    EXPECT_EQ(off.bug_keys, campaign.bug_keys) << "seed " << seed;
    EXPECT_EQ(off.outcomes, campaign.outcomes) << "seed " << seed;
    EXPECT_LE(campaign.result.interleavings, off.result.interleavings)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Checkpoint round-trip of the POR surfaces.

TEST(Por, CheckpointRoundTripsSleepAndPendingFrames) {
  core::Checkpoint cp;
  cp.fingerprint = "test";
  cp.interleavings = 3;

  core::DfsFrame frame;
  frame.key = EpochKey{1, 2};
  frame.taken_src = 0;
  frame.untried = {2, 3};
  frame.seen = {0, 2, 3, 4};
  frame.sleep = {4};
  frame.comm = 5;
  frame.tag = 7;
  frame.vc = {9, 0, 4};
  cp.frames.push_back(frame);

  core::DfsFrame plain;  // defaults: no sleep, world comm, any tag, no vc
  plain.key = EpochKey{0, 0};
  plain.taken_src = 1;
  plain.seen = {1};
  cp.frames.push_back(plain);

  core::DfsFrame pending = frame;
  pending.key = EpochKey{2, 0};
  pending.untried.clear();
  cp.pending_sleep.push_back(pending);

  const std::string text = core::serialize_checkpoint(cp);
  std::string error;
  const auto parsed = core::parse_checkpoint(text, "test", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->frames.size(), 2u);
  ASSERT_EQ(parsed->pending_sleep.size(), 1u);

  const core::DfsFrame& round = parsed->frames[0];
  EXPECT_EQ(round.key, frame.key);
  EXPECT_EQ(round.untried, frame.untried);
  EXPECT_EQ(round.seen, frame.seen);
  EXPECT_EQ(round.sleep, frame.sleep);
  EXPECT_EQ(round.comm, frame.comm);
  EXPECT_EQ(round.tag, frame.tag);
  EXPECT_EQ(round.vc, frame.vc);

  const core::DfsFrame& round_plain = parsed->frames[1];
  EXPECT_TRUE(round_plain.sleep.empty());
  EXPECT_EQ(round_plain.comm, mpism::kCommWorld);
  EXPECT_EQ(round_plain.tag, mpism::kAnyTag);
  EXPECT_TRUE(round_plain.vc.empty());

  const core::DfsFrame& round_pending = parsed->pending_sleep[0];
  EXPECT_EQ(round_pending.key, pending.key);
  EXPECT_EQ(round_pending.seen, pending.seen);
  EXPECT_EQ(round_pending.sleep, pending.sleep);
  EXPECT_EQ(round_pending.vc, pending.vc);
}

}  // namespace
}  // namespace dampi::test
