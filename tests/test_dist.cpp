// Distributed sharding tests: a sharded campaign driven entirely
// in-process (discovery -> split_frontier -> per-shard walks -> escape
// routing -> CampaignMerge) must reproduce the single-process walk's
// interleaving set exactly — same count, same schedule multiset, same
// bugs — for every shard width, scheduler, and matcher. Plus the
// supporting machinery: work-steal carving, journal requeue after a
// mid-shard cancel, escape_alts checkpoint round-trips, and the wire
// protocol over a real socketpair.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "core/checkpoint.hpp"
#include "core/decision_io.hpp"
#include "core/explorer.hpp"
#include "core/shard.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "mpism/cancel.hpp"
#include "mpism/fault.hpp"
#include "support/verify_helpers.hpp"
#include "sweep/journal.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::CampaignMerge;
using core::Checkpoint;
using core::EscapedAlt;
using core::ExploreResult;
using core::Explorer;
using core::ExplorerOptions;
using core::Schedule;

mpism::ProgramFn fan_in(int rounds) {
  return [rounds](mpism::Proc& p) { workloads::fan_in_rounds(p, rounds); };
}

/// Multiset of serialized schedules — one entry per interleaving, the
/// exact identity of "which runs did this walk perform".
using ScheduleBag = std::multiset<std::string>;

ScheduleBag::value_type bag_key(const Schedule& schedule) {
  return core::serialize_schedule(schedule);
}

std::set<std::string> bug_keys(const std::vector<core::BugRecord>& bugs) {
  std::set<std::string> keys;
  for (const auto& bug : bugs) keys.insert(core::bug_key(bug));
  return keys;
}

/// Drives a whole sharded campaign on the calling thread: exactly the
/// coordinator's shard/escape loop, minus the processes. Returns the
/// merged result and appends every run's schedule to `bag`.
ExploreResult run_sharded_campaign(const ExplorerOptions& base,
                                   const mpism::ProgramFn& program,
                                   std::size_t max_shards,
                                   ScheduleBag* bag) {
  ExplorerOptions disc = base;
  disc.discovery_only = true;
  ExploreResult discovered = Explorer(disc).explore(
      program, [&](const core::RunTrace&, const mpism::RunReport&,
                   const Schedule& s) { bag->insert(bag_key(s)); });

  const std::string fingerprint = core::options_fingerprint(base);
  Checkpoint root;
  root.fingerprint = fingerprint;
  root.frames = discovered.frontier;

  CampaignMerge merge(std::move(discovered), base.por);
  std::deque<Checkpoint> queue;
  for (Checkpoint& cp : core::split_frontier(root, max_shards, base.por)) {
    merge.register_shard_sites(cp);
    queue.push_back(std::move(cp));
  }

  while (!queue.empty()) {
    Checkpoint shard = std::move(queue.front());
    queue.pop_front();
    std::vector<EscapedAlt> escapes;
    ExplorerOptions options = base;
    options.resume_from = std::make_shared<const Checkpoint>(std::move(shard));
    options.on_escape = [&](const EscapedAlt& e) { escapes.push_back(e); };
    ExploreResult result = Explorer(options).explore(
        program, [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { bag->insert(bag_key(s)); });
    merge.add(result);
    for (const EscapedAlt& e : escapes) {
      if (!merge.escape_is_new(e)) continue;
      Checkpoint next = core::make_escape_shard(e, fingerprint);
      merge.register_shard_sites(next);
      queue.push_back(std::move(next));
    }
  }
  return merge.finish();
}

/// Sharded campaign with a fault plan, mirroring the coordinator's
/// propagation exactly: every walk (discovery, shards, escapes) gets a
/// FRESH plan instance — as every worker process does — and the
/// discovery-time fire counters ride in via Checkpoint::fault_fires
/// (split_frontier copies them; escape shards are stamped the way
/// add_shard stamps them).
struct FaultCampaign {
  ExploreResult result;
  std::uint64_t discovery_fires = 0;
  std::uint64_t shard_extra_fires = 0;  ///< fires beyond the seeded counters
};

FaultCampaign run_sharded_fault_campaign(const ExplorerOptions& base,
                                         const std::string& spec,
                                         const mpism::ProgramFn& program,
                                         std::size_t max_shards,
                                         ScheduleBag* bag) {
  std::string parse_error;
  ExplorerOptions disc = base;
  disc.fault = mpism::parse_fault_plan(spec, &parse_error);
  EXPECT_NE(disc.fault, nullptr) << parse_error;
  disc.discovery_only = true;
  ExploreResult discovered = Explorer(disc).explore(
      program, [&](const core::RunTrace&, const mpism::RunReport&,
                   const Schedule& s) { bag->insert(bag_key(s)); });

  const std::string fingerprint = core::options_fingerprint(disc);
  Checkpoint root;
  root.fingerprint = fingerprint;
  root.frames = discovered.frontier;
  root.fault_fires = disc.fault->fire_counts();

  FaultCampaign campaign;
  campaign.discovery_fires = disc.fault->total_fires();

  CampaignMerge merge(std::move(discovered), base.por);
  std::deque<Checkpoint> queue;
  for (Checkpoint& cp : core::split_frontier(root, max_shards, base.por)) {
    merge.register_shard_sites(cp);
    queue.push_back(std::move(cp));
  }

  while (!queue.empty()) {
    Checkpoint shard = std::move(queue.front());
    queue.pop_front();
    // Coordinator stamping: escape/steal shards carry no discovery
    // counters of their own.
    if (shard.fault_fires.empty()) shard.fault_fires = root.fault_fires;
    std::uint64_t seeded = 0;
    for (const std::uint64_t f : shard.fault_fires) seeded += f;

    std::vector<EscapedAlt> escapes;
    ExplorerOptions options = base;
    options.fault = mpism::parse_fault_plan(spec, &parse_error);
    EXPECT_NE(options.fault, nullptr) << parse_error;
    options.resume_from = std::make_shared<const Checkpoint>(std::move(shard));
    options.on_escape = [&](const EscapedAlt& e) { escapes.push_back(e); };
    ExploreResult result = Explorer(options).explore(
        program, [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { bag->insert(bag_key(s)); });
    campaign.shard_extra_fires += options.fault->total_fires() - seeded;
    merge.add(result);
    for (const EscapedAlt& e : escapes) {
      if (!merge.escape_is_new(e)) continue;
      Checkpoint next = core::make_escape_shard(e, fingerprint);
      merge.register_shard_sites(next);
      queue.push_back(std::move(next));
    }
  }
  campaign.result = merge.finish();
  return campaign;
}

// --- Sharded == unsharded, across widths, schedulers, matchers -------------

class ShardEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, mpism::SchedulerKind, mpism::MatchKind>> {};

TEST_P(ShardEquivalence, CampaignMatchesSingleWalk) {
  const auto [shards, sched, match] = GetParam();
  ExplorerOptions options = explorer_options(4);
  options.sched.kind = sched;
  options.match = match;

  ScheduleBag single_bag;
  ExploreResult single = Explorer(options).explore(
      fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { single_bag.insert(bag_key(s)); });

  ScheduleBag campaign_bag;
  ExploreResult campaign =
      run_sharded_campaign(options, fan_in(2), shards, &campaign_bag);

  // The campaign must have walked the same interleavings, not merely the
  // same number of them: every run is identified by its forced schedule.
  EXPECT_EQ(campaign.interleavings, single.interleavings);
  EXPECT_EQ(campaign_bag, single_bag);
  EXPECT_EQ(bug_keys(campaign.bugs), bug_keys(single.bugs));
  EXPECT_GT(single.interleavings, 1u);  // the fixture must actually branch
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ShardEquivalence,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{4},
                                         std::size_t{8}),
                       ::testing::Values(mpism::SchedulerKind::kThread,
                                         mpism::SchedulerKind::kCoop),
                       ::testing::Values(mpism::MatchKind::kLinear,
                                         mpism::MatchKind::kIndexed)));

// A buggy program: cross-shard bug dedup must leave exactly the bugs the
// single walk reports (fig3's single failing interleaving).
TEST(Dist, ShardedCampaignFindsAndDedupsBugs) {
  ExplorerOptions options = explorer_options(3);
  options.sched.kind = mpism::SchedulerKind::kCoop;

  ScheduleBag single_bag;
  ExploreResult single = Explorer(options).explore(
      workloads::fig3_wildcard_bug,
      [&](const core::RunTrace&, const mpism::RunReport&, const Schedule& s) {
        single_bag.insert(bag_key(s));
      });
  ASSERT_TRUE(single.found_bug());

  ScheduleBag campaign_bag;
  ExploreResult campaign = run_sharded_campaign(
      options, workloads::fig3_wildcard_bug, 4, &campaign_bag);
  EXPECT_TRUE(campaign.found_bug());
  EXPECT_EQ(campaign.interleavings, single.interleavings);
  EXPECT_EQ(campaign_bag, single_bag);
  EXPECT_EQ(bug_keys(campaign.bugs), bug_keys(single.bugs));
}

// --- Fault-plan propagation through the distributed path -------------------

// An error injection deep enough to leave the wildcard branching intact
// must produce the same interleaving multiset, the same bug set, and
// the same fire accounting at every shard width.
TEST(DistFault, ErrorInjectionMatchesSequentialAcrossWidths) {
  ExplorerOptions options = explorer_options(4);
  options.sched.kind = mpism::SchedulerKind::kCoop;
  const char* spec = "error@0:5";  // root's receive loop, after branching

  std::string parse_error;
  ExplorerOptions sequential = options;
  sequential.fault = mpism::parse_fault_plan(spec, &parse_error);
  ASSERT_NE(sequential.fault, nullptr) << parse_error;
  ScheduleBag single_bag;
  ExploreResult single = Explorer(sequential).explore(
      fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { single_bag.insert(bag_key(s)); });
  ASSERT_TRUE(single.found_bug());
  ASSERT_GT(single.interleavings, 1u);
  const std::uint64_t sequential_fires = sequential.fault->total_fires();

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    ScheduleBag campaign_bag;
    const FaultCampaign campaign = run_sharded_fault_campaign(
        options, spec, fan_in(2), shards, &campaign_bag);
    EXPECT_EQ(campaign.result.interleavings, single.interleavings)
        << "shards=" << shards;
    EXPECT_EQ(campaign_bag, single_bag) << "shards=" << shards;
    EXPECT_EQ(bug_keys(campaign.result.bugs), bug_keys(single.bugs))
        << "shards=" << shards;
    // The error point fires once per run reaching it, in both worlds.
    EXPECT_EQ(campaign.discovery_fires + campaign.shard_extra_fires,
              sequential_fires)
        << "shards=" << shards;
  }
}

// Delay perturbs timing, never outcomes: verdicts stay clean and the
// per-run fire accounting (one per interleaving) splits exactly across
// discovery + shards.
TEST(DistFault, DelayInjectionKeepsVerdictsAndFireAccounting) {
  ExplorerOptions options = explorer_options(4);
  options.sched.kind = mpism::SchedulerKind::kCoop;
  const char* spec = "delay@1:1:500";

  std::string parse_error;
  ExplorerOptions sequential = options;
  sequential.fault = mpism::parse_fault_plan(spec, &parse_error);
  ASSERT_NE(sequential.fault, nullptr) << parse_error;
  ScheduleBag single_bag;
  ExploreResult single = Explorer(sequential).explore(
      fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { single_bag.insert(bag_key(s)); });
  EXPECT_FALSE(single.found_bug());
  ASSERT_GT(single.interleavings, 4u);
  EXPECT_EQ(sequential.fault->total_fires(), single.interleavings);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    ScheduleBag campaign_bag;
    const FaultCampaign campaign = run_sharded_fault_campaign(
        options, spec, fan_in(2), shards, &campaign_bag);
    EXPECT_FALSE(campaign.result.found_bug()) << "shards=" << shards;
    EXPECT_EQ(campaign.result.interleavings, single.interleavings)
        << "shards=" << shards;
    EXPECT_EQ(campaign_bag, single_bag) << "shards=" << shards;
    EXPECT_EQ(campaign.discovery_fires + campaign.shard_extra_fires,
              single.interleavings)
        << "shards=" << shards;
  }
}

// A flaky cap saturated during discovery must stay saturated in every
// shard: the discovery-time counters ride in via Checkpoint::fault_fires
// and seed each worker's fresh plan, so no shard re-arms the fault. This
// is the --fault ... --workers N == --workers 1 accounting contract.
TEST(DistFault, SaturatedFlakyCounterPropagatesIntoShards) {
  ExplorerOptions options = explorer_options(4);
  options.sched.kind = mpism::SchedulerKind::kCoop;
  options.max_retries = 3;
  const char* spec = "flaky@0:2:2";  // burned by the discovery run's retries

  std::string parse_error;
  ExplorerOptions sequential = options;
  sequential.fault = mpism::parse_fault_plan(spec, &parse_error);
  ASSERT_NE(sequential.fault, nullptr) << parse_error;
  ScheduleBag single_bag;
  ExploreResult single = Explorer(sequential).explore(
      fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { single_bag.insert(bag_key(s)); });
  EXPECT_FALSE(single.found_bug());
  EXPECT_EQ(single.retries, 2u);
  EXPECT_EQ(sequential.fault->total_fires(), 2u);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    ScheduleBag campaign_bag;
    const FaultCampaign campaign = run_sharded_fault_campaign(
        options, spec, fan_in(2), shards, &campaign_bag);
    EXPECT_FALSE(campaign.result.found_bug()) << "shards=" << shards;
    EXPECT_EQ(campaign.result.interleavings, single.interleavings)
        << "shards=" << shards;
    EXPECT_EQ(campaign_bag, single_bag) << "shards=" << shards;
    EXPECT_EQ(campaign.discovery_fires, 2u) << "shards=" << shards;
    EXPECT_EQ(campaign.shard_extra_fires, 0u)
        << "a shard re-armed the exhausted flaky point (shards=" << shards
        << ")";
    EXPECT_EQ(campaign.result.retries, single.retries) << "shards=" << shards;
  }
}

// --- Work stealing ---------------------------------------------------------

// Carving half a shard's frontier mid-walk and exploring the stolen
// checkpoint separately must cover exactly the un-stolen walk's set.
TEST(Dist, StealSplitsWorkWithoutLossOrDuplication) {
  ExplorerOptions options = explorer_options(4);
  options.sched.kind = mpism::SchedulerKind::kCoop;

  ScheduleBag baseline_bag;
  ExploreResult baseline = Explorer(options).explore(
      fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { baseline_bag.insert(bag_key(s)); });
  ASSERT_GT(baseline.interleavings, 4u);

  // Discovery + a single shard holding the whole frontier.
  ExplorerOptions disc = options;
  disc.discovery_only = true;
  ScheduleBag bag;
  ExploreResult discovered = Explorer(disc).explore(
      fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { bag.insert(bag_key(s)); });
  const std::string fingerprint = core::options_fingerprint(options);
  Checkpoint root;
  root.fingerprint = fingerprint;
  root.frames = discovered.frontier;
  auto shards = core::split_frontier(root, 1);
  ASSERT_EQ(shards.size(), 1u);

  CampaignMerge merge(std::move(discovered));
  merge.register_shard_sites(shards[0]);

  // Victim walk: after 2 runs, serve one steal request.
  std::shared_ptr<const Checkpoint> stolen;
  int runs = 0;
  bool steal_pending = false;
  std::vector<EscapedAlt> escapes;
  ExplorerOptions victim = options;
  victim.resume_from = std::make_shared<const Checkpoint>(shards[0]);
  victim.steal_poll = [&] {
    if (runs == 2 && stolen == nullptr && !steal_pending) {
      steal_pending = true;
      return true;
    }
    return false;
  };
  victim.on_steal = [&](std::shared_ptr<const Checkpoint> cp) {
    stolen = std::move(cp);
  };
  victim.on_escape = [&](const EscapedAlt& e) { escapes.push_back(e); };
  ExploreResult victim_result = Explorer(victim).explore(
      fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) {
        ++runs;
        bag.insert(bag_key(s));
      });
  merge.add(victim_result);
  ASSERT_NE(stolen, nullptr) << "the fixture is too small to steal from";

  // Thief walk over the stolen checkpoint (plus any escaped work).
  std::deque<Checkpoint> queue;
  merge.register_shard_sites(*stolen);
  queue.push_back(*stolen);
  for (const EscapedAlt& e : escapes) {
    if (merge.escape_is_new(e)) {
      Checkpoint next = core::make_escape_shard(e, fingerprint);
      merge.register_shard_sites(next);
      queue.push_back(std::move(next));
    }
  }
  while (!queue.empty()) {
    Checkpoint shard = std::move(queue.front());
    queue.pop_front();
    std::vector<EscapedAlt> more;
    ExplorerOptions thief = options;
    thief.resume_from = std::make_shared<const Checkpoint>(std::move(shard));
    thief.on_escape = [&](const EscapedAlt& e) { more.push_back(e); };
    ExploreResult r = Explorer(thief).explore(
        fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                       const Schedule& s) { bag.insert(bag_key(s)); });
    merge.add(r);
    for (const EscapedAlt& e : more) {
      if (merge.escape_is_new(e)) {
        Checkpoint next = core::make_escape_shard(e, fingerprint);
        merge.register_shard_sites(next);
        queue.push_back(std::move(next));
      }
    }
  }

  ExploreResult merged = merge.finish();
  EXPECT_EQ(merged.interleavings, baseline.interleavings);
  EXPECT_EQ(bag, baseline_bag);
}

// A frontier whose every untried list is below the steal threshold is
// not worth a process handoff: carving must refuse (the worker replies
// kNoSteal) instead of stripping the victim's last alternative — and
// the victim then finishes every interleaving itself.
TEST(Dist, StealRefusesSubThresholdFrontier) {
  ExplorerOptions options = explorer_options(3);
  options.sched.kind = mpism::SchedulerKind::kCoop;

  ScheduleBag baseline_bag;
  ExploreResult baseline = Explorer(options).explore(
      fan_in(1), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { baseline_bag.insert(bag_key(s)); });

  ExplorerOptions disc = options;
  disc.discovery_only = true;
  ScheduleBag bag;
  ExploreResult discovered = Explorer(disc).explore(
      fan_in(1), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { bag.insert(bag_key(s)); });
  // The fixture's whole point: one alternative per frame, all lists
  // below the threshold.
  for (const auto& frame : discovered.frontier) {
    ASSERT_LT(frame.untried.size(), 2u);
  }
  const std::string fingerprint = core::options_fingerprint(options);
  Checkpoint root;
  root.fingerprint = fingerprint;
  root.frames = discovered.frontier;
  auto shards = core::split_frontier(root, 1);
  ASSERT_EQ(shards.size(), 1u);

  CampaignMerge merge(std::move(discovered));
  merge.register_shard_sites(shards[0]);

  int steal_attempts = 0;
  int steal_grants = 0;
  bool steal_pending = false;
  std::vector<EscapedAlt> escapes;
  ExplorerOptions victim = options;
  victim.resume_from = std::make_shared<const Checkpoint>(shards[0]);
  victim.steal_poll = [&] {
    if (steal_attempts == 0 && !steal_pending) {
      steal_pending = true;
      return true;
    }
    return false;
  };
  victim.on_steal = [&](std::shared_ptr<const Checkpoint> cp) {
    ++steal_attempts;
    if (cp != nullptr) ++steal_grants;
  };
  victim.on_escape = [&](const EscapedAlt& e) { escapes.push_back(e); };
  ExploreResult victim_result = Explorer(victim).explore(
      fan_in(1), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule& s) { bag.insert(bag_key(s)); });
  merge.add(victim_result);
  EXPECT_EQ(steal_attempts, 1);
  EXPECT_EQ(steal_grants, 0) << "sub-threshold frontier must not be carved";

  // Whatever escaped still runs (coordinator loop), so nothing is lost.
  std::deque<Checkpoint> queue;
  for (const EscapedAlt& e : escapes) {
    if (merge.escape_is_new(e)) {
      Checkpoint next = core::make_escape_shard(e, fingerprint);
      merge.register_shard_sites(next);
      queue.push_back(std::move(next));
    }
  }
  while (!queue.empty()) {
    Checkpoint shard = std::move(queue.front());
    queue.pop_front();
    std::vector<EscapedAlt> more;
    ExplorerOptions follow = options;
    follow.resume_from = std::make_shared<const Checkpoint>(std::move(shard));
    follow.on_escape = [&](const EscapedAlt& e) { more.push_back(e); };
    ExploreResult r = Explorer(follow).explore(
        fan_in(1), [&](const core::RunTrace&, const mpism::RunReport&,
                       const Schedule& s) { bag.insert(bag_key(s)); });
    merge.add(r);
    for (const EscapedAlt& e : more) {
      if (merge.escape_is_new(e)) {
        Checkpoint next = core::make_escape_shard(e, fingerprint);
        merge.register_shard_sites(next);
        queue.push_back(std::move(next));
      }
    }
  }

  ExploreResult merged = merge.finish();
  EXPECT_EQ(merged.interleavings, baseline.interleavings);
  EXPECT_EQ(bag, baseline_bag);
}

// --- Journal requeue after a mid-shard cancel ------------------------------

// A shard cancelled mid-walk leaves a per-worker journal; requeueing
// from it (the coordinator's death-recovery path) finishes the shard
// with every interleaving counted exactly once.
TEST(Dist, CancelledShardResumesFromJournalExactlyOnce) {
  ExplorerOptions options = explorer_options(4);
  options.sched.kind = mpism::SchedulerKind::kCoop;

  ExploreResult baseline = Explorer(options).explore(fan_in(2));
  ASSERT_GT(baseline.interleavings, 4u);

  ExplorerOptions disc = options;
  disc.discovery_only = true;
  ExploreResult discovered = Explorer(disc).explore(fan_in(2));
  const std::uint64_t discovery_runs = discovered.interleavings;
  const std::string fingerprint = core::options_fingerprint(options);
  Checkpoint root;
  root.fingerprint = fingerprint;
  root.frames = discovered.frontier;
  auto shards = core::split_frontier(root, 1);
  ASSERT_EQ(shards.size(), 1u);

  const std::string journal =
      ::testing::TempDir() + "/dist_requeue.ckpt.w7";
  std::remove(journal.c_str());

  // First attempt: cancel after 2 shard runs, journalling every run.
  auto cancel = std::make_shared<mpism::CancelSource>();
  ExplorerOptions attempt = options;
  attempt.resume_from = std::make_shared<const Checkpoint>(shards[0]);
  attempt.checkpoint_path = journal;
  attempt.checkpoint_interval = 1;
  attempt.cancel = cancel;
  int runs = 0;
  ExploreResult aborted = Explorer(attempt).explore(
      fan_in(2), [&](const core::RunTrace&, const mpism::RunReport&,
                     const Schedule&) {
        if (++runs == 2) cancel->cancel("test: simulated worker death");
      });
  ASSERT_TRUE(aborted.interrupted);
  ASSERT_LT(aborted.interleavings, baseline.interleavings);

  // Requeue: reload the journal exactly as handle_death does and finish
  // it. The journalled counters ride in (resumed walks fold them in),
  // so the aborted attempt's partial result must NOT be merged.
  std::string error;
  auto requeued = core::load_checkpoint(journal, fingerprint, &error);
  ASSERT_TRUE(requeued.has_value()) << error;
  ExplorerOptions retry = options;
  retry.resume_from =
      std::make_shared<const Checkpoint>(std::move(*requeued));
  ExploreResult finished = Explorer(retry).explore(fan_in(2));
  EXPECT_FALSE(finished.interrupted);

  EXPECT_EQ(discovery_runs + finished.interleavings, baseline.interleavings);
  std::remove(journal.c_str());
}

// --- Checkpoint escape_alts round-trip -------------------------------------

TEST(Dist, EscapeAltsFlagSurvivesCheckpointRoundTrip) {
  Checkpoint cp;
  cp.fingerprint = "fp";
  cp.interleavings = 3;
  core::DfsFrame owned;
  owned.key = core::EpochKey{1, 0};
  owned.taken_src = 2;
  owned.seen = {0, 2};
  owned.escape_alts = true;
  core::DfsFrame local;
  local.key = core::EpochKey{0, 1};
  local.taken_src = 1;
  local.untried = {3};
  local.seen = {1, 3};
  cp.frames = {owned, local};

  std::string error;
  auto parsed =
      core::parse_checkpoint(core::serialize_checkpoint(cp), "fp", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->frames.size(), 2u);
  EXPECT_TRUE(parsed->frames[0].escape_alts);
  EXPECT_FALSE(parsed->frames[1].escape_alts);
  EXPECT_EQ(parsed->frames[0].seen, owned.seen);
  EXPECT_EQ(parsed->frames[1].untried, local.untried);
}

// A shard built from an escape explores exactly the escaped source, and
// the per-site seen set admits each (site, source) only once.
TEST(Dist, EscapeShardAndSiteDedup) {
  core::DfsFrame site;
  site.key = core::EpochKey{2, 1};
  site.taken_src = 0;
  site.seen = {0, 1};
  EscapedAlt escape;
  escape.frames = {site};
  escape.src = 3;

  Checkpoint shard = core::make_escape_shard(escape, "fp");
  ASSERT_EQ(shard.frames.size(), 1u);
  EXPECT_TRUE(shard.frames[0].escape_alts);
  EXPECT_EQ(shard.frames[0].untried, std::vector<mpism::Rank>{3});
  EXPECT_EQ(shard.frames[0].seen.count(3), 1u);

  CampaignMerge merge{ExploreResult{}};
  EXPECT_TRUE(merge.escape_is_new(escape));
  EXPECT_FALSE(merge.escape_is_new(escape));  // second arrival: dedup
  // Same site, different source: new again.
  EscapedAlt other = escape;
  other.src = 4;
  EXPECT_TRUE(merge.escape_is_new(other));
  // register_shard_sites pre-poisons the seen set of a queued shard.
  EscapedAlt third = escape;
  third.src = 5;
  Checkpoint queued = core::make_escape_shard(third, "fp");
  CampaignMerge fresh{ExploreResult{}};
  fresh.register_shard_sites(queued);
  EXPECT_FALSE(fresh.escape_is_new(third));
}

// on_escape is the one way out of a walk for an escaped alternative. A
// coordinator-owned root site whose other sources are still unseen
// escapes them as soon as a deeper flip replays it; without the hook
// the walk must fail with an internal-check error, not finish with a
// "clean" result missing those subtrees.
TEST(Dist, EscapeWithoutHookFailsTheWalk) {
  ExplorerOptions options = explorer_options(4);
  ExplorerOptions disc = options;
  disc.discovery_only = true;
  const ExploreResult discovered = Explorer(disc).explore(fan_in(2));
  ASSERT_GE(discovered.frontier.size(), 2u);

  auto shard = std::make_shared<Checkpoint>();
  shard->fingerprint = core::options_fingerprint(options);
  shard->frames = discovered.frontier;
  core::DfsFrame& site = shard->frames.front();
  site.untried.clear();
  site.seen = {site.taken_src};
  site.escape_alts = true;
  options.resume_from = shard;

  std::vector<EscapedAlt> escapes;
  ExplorerOptions hooked = options;
  hooked.on_escape = [&](const EscapedAlt& e) { escapes.push_back(e); };
  Explorer(hooked).explore(fan_in(2));
  ASSERT_FALSE(escapes.empty());

  EXPECT_THROW(Explorer(options).explore(fan_in(2)), InternalError);
}

// --- Wire protocol over a real socketpair ----------------------------------

TEST(Dist, ProtocolRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  dist::MessageChannel a(fds[0]);
  dist::MessageChannel b(fds[1]);

  dist::Hello hello;
  hello.worker_id = 5;
  // Fingerprints are single-line by construction (options_fingerprint),
  // same as the `options` line of the checkpoint format.
  hello.fingerprint = "nprocs=4 clock=1 sched=coop";
  ASSERT_TRUE(a.send(dist::MsgType::kHello, dist::serialize_hello(hello)));

  dist::WireMessage msg;
  ASSERT_EQ(b.recv(&msg, /*timeout_ms=*/1000),
            dist::MessageChannel::RecvStatus::kMessage);
  ASSERT_EQ(msg.type, dist::MsgType::kHello);
  std::string error;
  auto parsed_hello = dist::parse_hello(msg.payload, &error);
  ASSERT_TRUE(parsed_hello.has_value()) << error;
  EXPECT_EQ(parsed_hello->worker_id, 5);
  EXPECT_EQ(parsed_hello->fingerprint, hello.fingerprint);

  // A shard big enough to span several reads.
  Checkpoint cp;
  cp.fingerprint = "fp";
  for (int i = 0; i < 2000; ++i) {
    core::DfsFrame f;
    f.key = core::EpochKey{i % 4, static_cast<std::uint64_t>(i)};
    f.taken_src = i % 3;
    f.untried = {(i + 1) % 3, (i + 2) % 3};
    f.seen = {0, 1, 2};
    f.escape_alts = (i % 2) == 0;
    cp.frames.push_back(std::move(f));
  }
  const std::string text = core::serialize_checkpoint(cp);
  ASSERT_TRUE(b.send(dist::MsgType::kShard, dist::serialize_shard(42, text)));

  ASSERT_EQ(a.recv(&msg, 1000), dist::MessageChannel::RecvStatus::kMessage);
  ASSERT_EQ(msg.type, dist::MsgType::kShard);
  std::uint64_t shard_id = 0;
  auto parsed_shard = dist::parse_shard(msg.payload, "fp", &shard_id, &error);
  ASSERT_TRUE(parsed_shard.has_value()) << error;
  EXPECT_EQ(shard_id, 42u);
  ASSERT_EQ(parsed_shard->frames.size(), cp.frames.size());
  EXPECT_TRUE(parsed_shard->frames[0].escape_alts);
  EXPECT_FALSE(parsed_shard->frames[1].escape_alts);
  EXPECT_EQ(parsed_shard->frames[1999].untried, cp.frames[1999].untried);

  // Escape round-trip preserves the frame prefix and source.
  core::DfsFrame site;
  site.key = core::EpochKey{1, 7};
  site.taken_src = 0;
  site.seen = {0, 2};
  EscapedAlt escape;
  escape.frames = {site};
  escape.src = 2;
  ASSERT_TRUE(
      a.send(dist::MsgType::kEscape, dist::serialize_escape(escape, "fp")));
  ASSERT_EQ(b.recv(&msg, 1000), dist::MessageChannel::RecvStatus::kMessage);
  auto parsed_escape = dist::parse_escape(msg.payload, "fp", &error);
  ASSERT_TRUE(parsed_escape.has_value()) << error;
  EXPECT_EQ(parsed_escape->src, 2);
  ASSERT_EQ(parsed_escape->frames.size(), 1u);
  EXPECT_EQ(parsed_escape->frames[0].key.rank, 1);
  EXPECT_EQ(parsed_escape->frames[0].key.nd_index, 7u);

  // Worker result round-trip: counters, a bug, metrics.
  dist::WorkerResult wr;
  wr.shard_id = 42;
  wr.result.interleavings = 9;
  wr.result.total_vtime_us = 123.5;
  wr.result.retries = 1;
  core::BugRecord bug;
  bug.kind = core::BugRecord::Kind::kDeadlock;
  bug.interleaving = 4;
  bug.deadlock_detail = "all ranks blocked";
  bug.schedule.forced[core::EpochKey{1, 0}] = 2;
  wr.result.bugs.push_back(bug);
  wr.metrics_dump = "engine.messages 17\npool.worker_runs 3\n";
  ASSERT_TRUE(b.send(dist::MsgType::kResult,
                     dist::serialize_worker_result(wr, "fp")));
  ASSERT_EQ(a.recv(&msg, 1000), dist::MessageChannel::RecvStatus::kMessage);
  auto parsed_result = dist::parse_worker_result(msg.payload, "fp", &error);
  ASSERT_TRUE(parsed_result.has_value()) << error;
  EXPECT_EQ(parsed_result->shard_id, 42u);
  EXPECT_EQ(parsed_result->result.interleavings, 9u);
  EXPECT_EQ(parsed_result->result.retries, 1u);
  ASSERT_EQ(parsed_result->result.bugs.size(), 1u);
  EXPECT_EQ(parsed_result->result.bugs[0].kind,
            core::BugRecord::Kind::kDeadlock);
  EXPECT_EQ(core::bug_key(parsed_result->result.bugs[0]),
            core::bug_key(bug));
  EXPECT_EQ(parsed_result->metrics_dump, wr.metrics_dump);

  // A batch of fault-sweep plans goes out as PLAN; its answer is a
  // RESULT holding a sweep journal with a record per plan and the
  // worker's metrics.
  ASSERT_TRUE(b.send(dist::MsgType::kPlan,
                     dist::serialize_plan({{17, "delay@1:3:1000"}})));
  ASSERT_EQ(a.recv(&msg, 1000), dist::MessageChannel::RecvStatus::kMessage);
  ASSERT_EQ(msg.type, dist::MsgType::kPlan);
  auto parsed_batch = dist::parse_plan(msg.payload, &error);
  ASSERT_TRUE(parsed_batch.has_value()) << error;
  ASSERT_EQ(parsed_batch->size(), 1u);
  const dist::PlanTask* parsed_plan = &parsed_batch->front();
  EXPECT_EQ(parsed_plan->index, 17u);
  EXPECT_EQ(parsed_plan->spec, "delay@1:3:1000");
  sweep::SweepJournal answer;
  answer.fingerprint = "fp sweep budget=64";
  sweep::PlanRecord& record = answer.records[parsed_plan->index];
  record.index = parsed_plan->index;
  record.spec = parsed_plan->spec;
  record.verdict = sweep::Verdict::kMasked;
  record.interleavings = 4;
  record.fires = 1;
  dist::PlanResult plan_result;
  plan_result.journal = sweep::serialize_sweep_journal(answer);
  plan_result.metrics_dump = "engine.runs 5\nexplorer.retries 2\n";
  ASSERT_TRUE(a.send(dist::MsgType::kResult,
                     dist::serialize_plan_result(plan_result)));
  ASSERT_EQ(b.recv(&msg, 1000), dist::MessageChannel::RecvStatus::kMessage);
  ASSERT_EQ(msg.type, dist::MsgType::kResult);
  auto parsed_plan_result = dist::parse_plan_result(msg.payload, &error);
  ASSERT_TRUE(parsed_plan_result.has_value()) << error;
  EXPECT_EQ(parsed_plan_result->metrics_dump, plan_result.metrics_dump);
  auto parsed_answer = sweep::parse_sweep_journal(
      parsed_plan_result->journal, answer.fingerprint, &error);
  ASSERT_TRUE(parsed_answer.has_value()) << error;
  ASSERT_EQ(parsed_answer->records.size(), 1u);
  const sweep::PlanRecord& got = parsed_answer->records.at(17);
  EXPECT_EQ(got.spec, record.spec);
  EXPECT_EQ(got.verdict, sweep::Verdict::kMasked);
  EXPECT_EQ(got.interleavings, 4u);
  EXPECT_EQ(got.fires, 1u);

  // EOF: closing one end turns the other into kClosed, after any
  // buffered frames have been drained.
  b.close();
  EXPECT_EQ(a.recv(&msg, 1000), dist::MessageChannel::RecvStatus::kClosed);
}

// Escapes travel only as eager ESCAPE messages; a RESULT payload that
// carries one is malformed.
TEST(Dist, WorkerResultRejectsEscapeLines) {
  const std::string good =
      dist::serialize_worker_result(dist::WorkerResult{}, "fp");
  std::string error;
  ASSERT_TRUE(dist::parse_worker_result(good, "fp", &error).has_value())
      << error;
  std::string bad = good;
  bad.insert(bad.find("ckpt "), "escape 0\n");
  EXPECT_FALSE(dist::parse_worker_result(bad, "fp", &error).has_value());
  EXPECT_NE(error.find("unknown dist-result keyword 'escape'"),
            std::string::npos)
      << error;
}

TEST(Dist, ProtocolRejectsFingerprintMismatch) {
  Checkpoint cp;
  cp.fingerprint = "fp-a";
  const std::string payload =
      dist::serialize_shard(1, core::serialize_checkpoint(cp));
  std::uint64_t id = 0;
  std::string error;
  EXPECT_FALSE(dist::parse_shard(payload, "fp-b", &id, &error).has_value());
  EXPECT_FALSE(error.empty());
}

// An untried count larger than the tokens on its frame line used to size
// a vector and throw std::length_error out of the shard parser.
TEST(Dist, ParseShardRefusesAnOversizedUntriedCount) {
  const std::string payload =
      "shard 3\n" + std::string(core::kCheckpointHeader) +
      "\noptions fp\nframe 0 0 0 0 1 0 u 4000000000000000000 1 s 0\nend\n";
  std::uint64_t id = 0;
  std::string error;
  EXPECT_FALSE(dist::parse_shard(payload, "fp", &id, &error).has_value());
  EXPECT_NE(error.find("line 3:"), std::string::npos) << error;
}

// --- Cancel with a SIGKILLed straggler terminates --------------------------

// Regression: a worker that ignores CANCEL while holding an assigned
// shard is SIGKILLed at the grace deadline. Its death must drop the
// shard — under cancel nothing will ever run it again — not requeue it,
// or the coordinator's exit condition (empty queue) never holds and the
// grace period re-arms forever. The fake worker below is this binary
// re-executed with --dampi-hang-worker: it completes HELLO (so it gets
// a shard assigned) and then ignores every subsequent message.
TEST(Dist, CancelWithSigkilledStragglerTerminates) {
  ExplorerOptions options = explorer_options(4);
  auto cancel = std::make_shared<mpism::CancelSource>();
  options.cancel = cancel;

  dist::DistOptions dopt;
  dopt.workers = 2;
  dopt.shutdown_grace_seconds = 0.2;
  dopt.explorer = options;
  dopt.worker_argv = {"/proc/self/exe", "--dampi-hang-worker",
                      core::options_fingerprint(options)};

  std::thread canceller([cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    cancel->cancel("test: external cancel");
  });
  dist::DistResult result = dist::run_distributed(dopt, fan_in(2));
  canceller.join();

  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.exploration.interrupted);
  EXPECT_EQ(result.stats.shards_requeued, 0u);
  EXPECT_EQ(result.stats.shards_quarantined, 0u);
}

// A worker whose exec fails dies before HELLO, and its inherited
// socketpair end closes with it. Each respawn fails the same way, so the
// spawn-failure cap must end the campaign with an error after exactly
// kMaxSpawnFailures attempts instead of polling forever on a non-empty
// queue.
TEST(Dist, SpawnFailureAborts) {
  dist::DistOptions dopt;
  dopt.workers = 1;
  dopt.explorer = explorer_options(4);
  dopt.worker_argv = {"/nonexistent-dampi-worker-binary"};

  dist::DistResult result = dist::run_distributed(dopt, fan_in(2));
  EXPECT_NE(result.error.find("died before HELLO"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.stats.workers_spawned, dist::kMaxSpawnFailures);
  EXPECT_EQ(result.stats.worker_deaths, dist::kMaxSpawnFailures);
}

// --- Worker channel spec ----------------------------------------------------

TEST(Dist, CoordinatorSocketSpecTakesAnInheritedFd) {
  std::string error;
  EXPECT_EQ(dist::connect_socket("fd:0", &error), 0);
  EXPECT_EQ(dist::connect_socket("fd:17", &error), 17);
}

// Every malformed spec is refused with an error naming it — none may
// fall back to some descriptor the worker would then write HELLO to.
struct BadSpec {
  const char* name;  ///< test-name suffix
  const char* spec;
};

void PrintTo(const BadSpec& bad, std::ostream* os) {
  *os << '\'' << bad.spec << '\'';
}

class BadCoordinatorSocketSpec : public ::testing::TestWithParam<BadSpec> {};

TEST_P(BadCoordinatorSocketSpec, IsRejectedByName) {
  const std::string spec = GetParam().spec;
  std::string error;
  EXPECT_EQ(dist::connect_socket(spec, &error), -1);
  EXPECT_NE(error.find("'" + spec + "'"), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(
    Dist, BadCoordinatorSocketSpec,
    ::testing::Values(BadSpec{"Empty", ""}, BadSpec{"NoNumber", "fd:"},
                      BadSpec{"Letters", "fd:abc"},
                      BadSpec{"TrailingJunk", "fd:3x"},
                      BadSpec{"Negative", "fd:-1"},
                      BadSpec{"PlusSign", "fd:+3"},
                      BadSpec{"LeadingSpace", "fd: 3"},
                      BadSpec{"SocketPath", "/tmp/dampi.sock"},
                      BadSpec{"BareNumber", "3"}),
    [](const ::testing::TestParamInfo<BadSpec>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace

/// Fake worker body for CancelWithSigkilledStragglerTerminates: HELLO
/// with the fingerprint passed as argv[2], then swallow every message
/// (kShard, kCancel, kShutdown) until SIGKILL or channel EOF.
int hang_worker_main(int argc, char** argv) {
  std::string spec;
  int worker_id = -1;
  const std::string fingerprint = argc > 2 ? argv[2] : "";
  for (int i = 3; i + 1 < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--worker-id") worker_id = std::atoi(argv[i + 1]);
    if (arg == "--coordinator-socket") spec = argv[i + 1];
  }
  std::string error;
  const int fd = dist::connect_socket(spec, &error);
  if (fd < 0) return 1;
  dist::MessageChannel chan(fd);
  dist::Hello hello;
  hello.worker_id = worker_id;
  hello.fingerprint = fingerprint;
  if (!chan.send(dist::MsgType::kHello, dist::serialize_hello(hello))) {
    return 1;
  }
  for (;;) {
    dist::WireMessage msg;
    if (chan.recv(&msg, -1) == dist::MessageChannel::RecvStatus::kClosed) {
      return 0;
    }
  }
}

}  // namespace dampi::test

// Custom main (overrides gtest_main): a first argument of
// --dampi-hang-worker turns this binary into the fake worker instead of
// running the test suite.
int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "--dampi-hang-worker") {
    return dampi::test::hang_worker_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
