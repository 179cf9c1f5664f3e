// Worker side of a distributed campaign: take over the socketpair end
// the coordinator passed down, introduce ourselves (worker id + options
// fingerprint), then loop — resume each assigned shard checkpoint with
// the ordinary Explorer, serving steal requests and shipping escapes
// eagerly between runs, and send the walk's result (counters, bugs,
// metrics increment) home. The worker
// journals to `<checkpoint>.w<id>` so concurrent workers never race on
// one tmp+rename path, and so the coordinator can requeue a dead
// worker's shard from its last flushed frontier.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/options.hpp"
#include "dist/protocol.hpp"
#include "mpism/cancel.hpp"
#include "mpism/runtime.hpp"

namespace dampi::dist {

struct WorkerConfig {
  /// --coordinator-socket value: "fd:N", the inherited socketpair end.
  std::string socket_spec;
  int worker_id = 0;
  /// Search options, identical (same fingerprint) to the coordinator's.
  /// checkpoint_path is the campaign's base path; the worker derives its
  /// private `<path>.w<id>` journal from it. resume_from / discovery /
  /// steal hooks are overwritten per shard.
  core::ExplorerOptions options;
};

/// Blocks until the coordinator sends SHUTDOWN (returns 0) or the
/// connection/protocol fails (returns nonzero).
int run_worker(const WorkerConfig& config, const mpism::ProgramFn& program);

/// The start of every worker: takes over the inherited socketpair end
/// named by `socket_spec` ("fd:N") and sends HELLO {worker_id,
/// fingerprint}. nullptr (logged) when either fails.
std::unique_ptr<MessageChannel> join_pool(const std::string& socket_spec,
                                          int worker_id,
                                          const std::string& fingerprint);

/// Blocks until the coordinator sends a task frame, serving what comes
/// before it: CANCEL fires `cancel`, STEAL (nothing to carve) is
/// declined. nullopt once SHUTDOWN arrived (*shutdown_requested) or the
/// channel closed.
std::optional<WireMessage> next_task(MessageChannel& channel,
                                     mpism::CancelSource& cancel,
                                     bool* shutdown_requested);

/// What the coordinator sent while a walk runs, read between runs:
/// CANCEL, SHUTDOWN (which also sets *shutdown_requested) and a lost
/// channel fire `cancel`. Returns the number of STEAL requests read.
int poll_coordinator(MessageChannel& channel, mpism::CancelSource& cancel,
                     bool* shutdown_requested);

}  // namespace dampi::dist
