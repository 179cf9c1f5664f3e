// Campaign coordinator: the distributed half of the verifier
// (DESIGN.md §4.12).
//
// The coordinator performs the discovery run itself (or restores a
// --resume journal), splits the resulting frontier into per-subtree
// shards, and farms them out through a WorkerPool (pool.hpp) of worker
// processes spawned from `worker_argv` (verify_cli --worker). On top of
// the pool it merges shard results (CampaignMerge — bug dedup, counter
// sums, exactly-once escape processing), rebalances by asking busy
// workers to carve off half of their shallowest untried list for idle
// ones, resumes the shard of a worker that died mid-shard from the
// worker's `<ckpt>.wN` journal when loadable (else the pool resends the
// original shard text), and quarantines a shard only after repeated
// deaths. The merged campaign verdict is identical to a single-process
// walk's, modulo order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "core/options.hpp"
#include "dist/pool.hpp"
#include "mpism/runtime.hpp"

namespace dampi::dist {

struct DistOptions {
  int workers = 2;
  /// Base argv of a worker (argv[0] = executable). The coordinator
  /// spawns every worker itself, appending `--worker --worker-id N
  /// --coordinator-socket fd:M`, where M is the worker's end of a
  /// socketpair it inherits across exec.
  std::vector<std::string> worker_argv;
  /// After CANCEL/SHUTDOWN, stragglers get this long before SIGKILL.
  double shutdown_grace_seconds = kShutdownGraceSeconds;
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
