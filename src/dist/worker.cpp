#include "dist/worker.hpp"

#include <cstdio>
#include <memory>
#include <utility>

#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/explorer.hpp"
#include "dist/protocol.hpp"
#include "mpism/cancel.hpp"
#include "obs/metrics.hpp"

namespace dampi::dist {

int run_worker(const WorkerConfig& config, const mpism::ProgramFn& program) {
  std::string error;
  const int fd = connect_socket(config.socket_spec, &error);
  if (fd < 0) {
    DAMPI_LOG(kError) << "worker " << config.worker_id << ": " << error;
    return 3;
  }
  MessageChannel channel(fd);

  const std::string fingerprint = core::options_fingerprint(config.options);
  Hello hello;
  hello.worker_id = config.worker_id;
  hello.fingerprint = fingerprint;
  if (!channel.send(MsgType::kHello, serialize_hello(hello))) return 3;

  const std::string journal =
      config.options.checkpoint_path.empty()
          ? std::string()
          : config.options.checkpoint_path + ".w" +
                std::to_string(config.worker_id);

  // One cancel source for the worker's lifetime: a campaign CANCEL tears
  // down the current shard and instantly aborts any shard after it.
  auto cancel = config.options.cancel
                    ? config.options.cancel
                    : std::make_shared<mpism::CancelSource>();
  bool shutdown_requested = false;

  for (;;) {
    WireMessage msg;
    const auto status = channel.recv(&msg, /*timeout_ms=*/-1);
    if (status == MessageChannel::RecvStatus::kClosed) {
      // Coordinator gone: a clean exit if it already said SHUTDOWN,
      // otherwise an orphaned worker with nobody to report to.
      return shutdown_requested ? 0 : 3;
    }
    if (status != MessageChannel::RecvStatus::kMessage) continue;

    switch (msg.type) {
      case MsgType::kShutdown:
        return 0;
      case MsgType::kCancel:
        cancel->cancel("coordinator cancelled the campaign");
        break;
      case MsgType::kSteal:
        // Idle — nothing on the stack to carve.
        channel.send(MsgType::kNoSteal, "");
        break;
      case MsgType::kShard: {
        std::uint64_t shard_id = 0;
        auto shard = parse_shard(msg.payload, fingerprint, &shard_id, &error);
        if (!shard.has_value() ||
            !core::validate_checkpoint(*shard, config.options.nprocs,
                                       &error)) {
          DAMPI_LOG(kError) << "worker " << config.worker_id
                            << ": bad shard: " << error;
          return 3;
        }
        // A fresh shard means the previous journal is fully accounted
        // for (its result was merged) — remove it so a death during this
        // shard can never resurrect the previous shard's final state.
        if (!journal.empty()) std::remove(journal.c_str());

        core::ExplorerOptions options = config.options;
        options.cancel = cancel;
        options.checkpoint_path = journal;
        options.resume_from =
            std::make_shared<const core::Checkpoint>(*std::move(shard));
        options.discovery_only = false;
        options.export_frontier = false;

        // Steal requests arrive on this channel; the explorer polls
        // between runs. Requests landing after the walk ends are
        // declined below.
        int pending_steals = 0;
        options.steal_poll = [&]() {
          WireMessage note;
          while (channel.recv(&note, /*timeout_ms=*/0) ==
                 MessageChannel::RecvStatus::kMessage) {
            if (note.type == MsgType::kSteal) {
              ++pending_steals;
            } else if (note.type == MsgType::kCancel) {
              cancel->cancel("coordinator cancelled the campaign");
            } else if (note.type == MsgType::kShutdown) {
              shutdown_requested = true;
              cancel->cancel("coordinator shut the campaign down");
            }
          }
          if (!channel.valid()) {
            cancel->cancel("coordinator connection lost");
          }
          if (pending_steals > 0) {
            --pending_steals;
            return true;
          }
          return false;
        };
        options.on_steal =
            [&](std::shared_ptr<const core::Checkpoint> stolen) {
              if (stolen) {
                channel.send(MsgType::kStolen,
                             serialize_shard(0, serialize_checkpoint(*stolen)));
              } else {
                channel.send(MsgType::kNoSteal, "");
              }
            };
        // Eager escape shipping: the send precedes the next journal
        // flush, so no escape can hide inside an already-journalled run
        // if this worker is killed.
        options.on_escape = [&](const core::EscapedAlt& escape) {
          channel.send(MsgType::kEscape,
                       serialize_escape(escape, fingerprint));
        };

        core::Explorer explorer(std::move(options));
        core::ExploreResult walk = explorer.explore(program);

        while (pending_steals-- > 0) channel.send(MsgType::kNoSteal, "");

        // Per-shard throughput, from the walk's own run-span timings
        // (sum of replay wall times, not the worker's idle time waiting
        // for shards). merge_dump surfaces it as dist.shard_run_rate
        // (campaign-total runs/sec) and w<id>.shard_run_rate per worker.
        if (walk.total_wall_seconds > 0.0) {
          obs::Registry::instance()
              .counter("shard_run_rate")
              .add(static_cast<std::uint64_t>(
                  static_cast<double>(walk.interleavings) /
                  walk.total_wall_seconds));
        }

        WorkerResult result;
        result.shard_id = shard_id;
        result.result = std::move(walk);
        result.metrics_dump = obs::Registry::instance().dump();
        obs::Registry::instance().reset();
        if (!channel.send(MsgType::kResult,
                          serialize_worker_result(result, fingerprint))) {
          return shutdown_requested ? 0 : 3;
        }
        break;
      }
      default:
        DAMPI_LOG(kWarn) << "worker " << config.worker_id
                         << ": unexpected message type "
                         << static_cast<int>(msg.type);
        break;
    }
    if (shutdown_requested) return 0;
  }
}

}  // namespace dampi::dist
