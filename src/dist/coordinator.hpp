// Campaign coordinator: the distributed half of the verifier
// (DESIGN.md §4.12).
//
// The coordinator performs the discovery run itself (or restores a
// --resume journal), splits the resulting frontier into per-subtree
// shards, and farms them out to a pool of worker processes it spawns
// from `worker_argv` (verify_cli --worker). It then event-loops over
// the worker channels: merging shard results (CampaignMerge — bug
// dedup, counter sums, exactly-once escape processing), rebalancing by
// asking busy workers to carve off half of their shallowest untried
// list for idle ones, requeueing the shard of any worker that dies
// mid-shard (from the worker's `<ckpt>.wN` journal when loadable, else
// from the original shard text), respawning replacement workers, and
// quarantining a shard only after repeated deaths. The merged campaign
// verdict is identical to a single-process walk's, modulo order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "core/options.hpp"
#include "mpism/runtime.hpp"

namespace dampi::dist {

/// A shard survives this many worker deaths before it is quarantined.
inline constexpr int kMaxShardRespawns = 2;
/// A worker slot that keeps dying before completing HELLO (e.g. the
/// binary fails to exec) aborts the campaign after this many attempts.
inline constexpr int kMaxSpawnFailures = 3;

struct DistOptions {
  int workers = 2;
  /// Base argv of a worker (argv[0] = executable). The coordinator
  /// spawns every worker itself, appending `--worker --worker-id N
  /// --coordinator-socket fd:M`, where M is the worker's end of a
  /// socketpair it inherits across exec.
  std::vector<std::string> worker_argv;
  /// After CANCEL/SHUTDOWN, stragglers get this long before SIGKILL.
  double shutdown_grace_seconds = 10.0;
  /// The campaign's search options; must produce the same
  /// options_fingerprint as the workers built from worker_argv.
  /// checkpoint_path (if any) is the campaign journal — discovery
  /// flushes the frontier there, workers journal to `<path>.w<id>`, and
  /// a fully completed campaign writes the merged final state back.
  core::ExplorerOptions explorer;
};

struct DistStats {
  int workers_spawned = 0;
  int worker_deaths = 0;
  std::uint64_t shards_initial = 0;   ///< from the discovery frontier
  std::uint64_t shards_stolen = 0;    ///< carved off by work-stealing
  std::uint64_t shards_escaped = 0;   ///< spawned from escaped alternatives
  std::uint64_t shards_requeued = 0;  ///< reassigned after a worker death
  std::uint64_t shards_quarantined = 0;
};

struct DistResult {
  /// Campaign-level merge: discovery + every shard, bugs deduplicated
  /// and canonically ordered, partial-coverage flags OR'd.
  core::ExploreResult exploration;
  DistStats stats;
  /// Per-shard obs-registry increments in arrival order, for namespaced
  /// merging into the coordinator's registry (obs::merge_dump).
  std::vector<std::pair<int, std::string>> worker_metrics;
  /// Non-empty on campaign infrastructure failure (fingerprint
  /// mismatch, spawn failure): the exploration is partial and the CLI
  /// reports exit code 3.
  std::string error;
};

DistResult run_distributed(const DistOptions& options,
                           const mpism::ProgramFn& program);

}  // namespace dampi::dist
