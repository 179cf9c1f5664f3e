#include "dist/coordinator.hpp"

#include <cstdio>

#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "dist/protocol.hpp"

namespace dampi::dist {

DistResult run_distributed(const DistOptions& options,
                           const mpism::ProgramFn& program) {
  DistResult out;
  const std::string fingerprint = core::options_fingerprint(options.explorer);

  // --- Discovery (or resume restore) --------------------------------------
  core::ExplorerOptions disc = options.explorer;
  disc.discovery_only = true;
  core::ExploreResult discovered = core::Explorer(disc).explore(program);
  core::Checkpoint root;
  root.fingerprint = fingerprint;
  root.frames = discovered.frontier;
  // Snapshot the fault plan's fire counters after discovery: every
  // shard (split, escape, or requeued) carries them, so worker
  // processes — which parse their own fresh plan — resume the campaign
  // accounting instead of re-arming flaky points discovery exhausted.
  if (options.explorer.fault) {
    root.fault_fires = options.explorer.fault->fire_counts();
  }

  const bool discovery_aborted =
      discovered.interrupted || discovered.time_budget_exhausted;
  core::CampaignMerge merge(std::move(discovered), options.explorer.por);

  // --- Shards, one pool task each ------------------------------------------
  WorkerPool pool(options.workers, options.worker_argv, fingerprint,
                  options.shutdown_grace_seconds);
  std::uint64_t next_shard_id = 1;
  auto add_shard = [&](core::Checkpoint cp) {
    // Escape/steal shards are built without the discovery-time fault
    // accounting; stamp it on so every worker resumes the same counters.
    if (cp.fault_fires.empty()) cp.fault_fires = root.fault_fires;
    merge.register_shard_sites(cp);
    const std::uint64_t id = next_shard_id++;
    pool.push({id, MsgType::kShard,
               serialize_shard(id, core::serialize_checkpoint(cp))});
  };
  if (!discovery_aborted) {
    for (core::Checkpoint& cp :
         core::split_frontier(root, 0, options.explorer.por)) {
      add_shard(std::move(cp));
      ++out.stats.shards_initial;
    }
  }
  if (out.stats.shards_initial == 0) {
    out.exploration = merge.finish();
    return out;
  }

  const std::string& ckpt = options.explorer.checkpoint_path;
  auto journal_of = [&ckpt](const Worker& w) {
    return ckpt + ".w" + std::to_string(w.id);
  };
  bool budget_cancel = false;
  bool external_cancel = false;

  WorkerPool::Hooks hooks;
  hooks.cancel_requested = [&] {
    if (options.explorer.cancel && options.explorer.cancel->requested()) {
      external_cancel = true;
    } else if (!pool.cancelling() &&
               merge.interleavings() >= options.explorer.max_interleavings) {
      budget_cancel = true;
    }
    return external_cancel || budget_cancel;
  };
  // A worker's journal holds only the shard it walks now: stale ones
  // (a killed campaign's) go before any worker starts, and each is
  // retired once accounted for — its shard's RESULT merged, or the shard
  // resumed from it after a death — so a worker that dies before
  // reading its next shard cannot resurrect the previous one.
  if (!ckpt.empty()) {
    for (const Worker& w : pool.workers()) std::remove(journal_of(w).c_str());
  }
  hooks.on_lost = [&](Worker& w, Task& task) {
    // Prefer the dead worker's own journal: everything it already
    // explored (runs, bugs, counters) is in there, so the resumed shard
    // re-executes only the unflushed tail. Escapes were shipped eagerly
    // and need no recovery. A journal that does not parse or names
    // ranks outside the campaign is ignored: the shard is requeued as
    // it was last sent.
    if (ckpt.empty()) return;
    std::string jerr;
    auto cp = core::load_checkpoint(journal_of(w), fingerprint, &jerr);
    std::remove(journal_of(w).c_str());
    if (cp.has_value() &&
        core::validate_checkpoint(*cp, options.explorer.nprocs, &jerr)) {
      merge.register_shard_sites(*cp);
      task.payload = serialize_shard(task.id, core::serialize_checkpoint(*cp));
    }
  };
  hooks.on_abandoned = [&](const Task&) {
    merge.quarantine_shard();
    ++out.stats.shards_quarantined;
  };
  hooks.on_idle = [&] {
    // Rebalance: every still-idle worker asks one distinct busy worker
    // to carve off half of its shallowest untried list.
    for (Worker& w : pool.workers()) {
      if (!w.idle()) continue;
      for (Worker& victim : pool.workers()) {
        if (victim.id == w.id || !victim.live() || !victim.task.has_value() ||
            victim.steal_outstanding) {
          continue;
        }
        if (victim.chan->send(MsgType::kSteal, "")) {
          victim.steal_outstanding = true;
        }
        break;
      }
    }
  };
  hooks.on_message = [&](Worker& w, WireMessage& msg) {
    std::string perr;
    switch (msg.type) {
      case MsgType::kEscape: {
        const auto escape = parse_escape(msg.payload, fingerprint, &perr);
        if (!escape.has_value()) {
          pool.protocol_error(w, "bad escape: " + perr);
        } else if (!pool.cancelling() && merge.escape_is_new(*escape)) {
          add_shard(core::make_escape_shard(*escape, fingerprint));
          ++out.stats.shards_escaped;
        }
        break;
      }
      case MsgType::kStolen: {
        w.steal_outstanding = false;
        std::uint64_t ignored = 0;
        auto cp = parse_shard(msg.payload, fingerprint, &ignored, &perr);
        if (!cp.has_value()) {
          pool.protocol_error(w, "bad stolen shard: " + perr);
        } else if (!pool.cancelling()) {
          add_shard(std::move(*cp));
          ++out.stats.shards_stolen;
        }
        break;
      }
      case MsgType::kNoSteal:
        w.steal_outstanding = false;
        break;
      case MsgType::kResult: {
        auto result = parse_worker_result(msg.payload, fingerprint, &perr);
        if (!result.has_value()) {
          pool.protocol_error(w, "bad result: " + perr);
          break;
        }
        merge.add(result->result);
        if (!ckpt.empty()) std::remove(journal_of(w).c_str());
        if (!result->metrics_dump.empty()) {
          out.worker_metrics.emplace_back(w.id, result->metrics_dump);
        }
        pool.finish(w);
        w.steal_outstanding = false;  // its walk is over; nothing to give
        break;
      }
      default:
        DAMPI_LOG(kWarn) << "worker " << w.id << ": unexpected message type "
                         << static_cast<int>(msg.type);
        break;
    }
  };
  out.error = pool.run(hooks);
  out.stats.workers_spawned = pool.spawned();
  out.stats.worker_deaths = pool.deaths();
  out.stats.shards_requeued = pool.requeued();

  out.exploration = merge.finish();
  if (budget_cancel) out.exploration.interleaving_budget_exhausted = true;
  if (external_cancel) out.exploration.interrupted = true;
  if (out.error.empty() && !pool.cancelling() && !ckpt.empty()) {
    // Fully completed campaign: write the merged final state back to the
    // campaign journal (empty frontier = nothing left to resume).
    core::Checkpoint final_cp;
    final_cp.fingerprint = fingerprint;
    core::store_counters(out.exploration, &final_cp);
    core::save_checkpoint(final_cp, ckpt);
  }
  return out;
}

}  // namespace dampi::dist
