#include "dist/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "dist/protocol.hpp"

namespace dampi::dist {

namespace {

struct ShardState {
  std::uint64_t id = 0;
  core::Checkpoint cp;
  std::string text;  ///< serialized once; resent verbatim on requeue
  int deaths = 0;
};

struct WorkerProc {
  int id = -1;
  pid_t pid = -1;
  bool reaped = false;
  std::unique_ptr<MessageChannel> chan;
  bool hello = false;
  int spawn_failures = 0;
  std::optional<std::uint64_t> assigned;
  /// A STEAL was sent and neither STOLEN, NO_STEAL, nor the worker's
  /// RESULT has answered it yet.
  bool steal_outstanding = false;
};

}  // namespace

DistResult run_distributed(const DistOptions& options,
                           const mpism::ProgramFn& program) {
  DistResult out;
  // Writes to a dead worker must fail with EPIPE, not kill the campaign.
  std::signal(SIGPIPE, SIG_IGN);

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

  // --- Shard bookkeeping ---------------------------------------------------
  std::map<std::uint64_t, ShardState> shards;
  std::deque<std::uint64_t> queue;
  std::uint64_t next_shard_id = 1;
  auto add_shard = [&](core::Checkpoint cp) {
    ShardState st;
    st.id = next_shard_id++;
    // Escape/steal shards are built without the discovery-time fault
    // accounting; stamp it on so every worker resumes the same counters.
    if (cp.fault_fires.empty()) cp.fault_fires = root.fault_fires;
    st.text = core::serialize_checkpoint(cp);
    st.cp = std::move(cp);
    merge.register_shard_sites(st.cp);
    queue.push_back(st.id);
    shards.emplace(st.id, std::move(st));
  };
  if (!discovery_aborted) {
    for (core::Checkpoint& cp :
         core::split_frontier(root, 0, options.explorer.por)) {
      add_shard(std::move(cp));
      ++out.stats.shards_initial;
    }
  }
  if (queue.empty()) {
    out.exploration = merge.finish();
    return out;
  }

  // --- Worker pool ---------------------------------------------------------
  std::vector<WorkerProc> workers(
      static_cast<std::size_t>(std::max(1, options.workers)));
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].id = static_cast<int>(i);
  }

  bool cancel_broadcast = false;
  bool budget_cancel = false;
  bool external_cancel = false;
  bool shutting_down = false;
  using Clock = std::chrono::steady_clock;
  Clock::time_point grace_deadline{};

  auto fatal = [&](const std::string& message) {
    if (!out.error.empty()) return;
    out.error = message;
    DAMPI_LOG(kError) << "distributed campaign: " << message;
    for (WorkerProc& w : workers) {
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
    }
  };

  auto spawn_worker = [&](WorkerProc& w) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      fatal("socketpair failed");
      return;
    }
    // Coordinator-side ends must not leak into workers: a sibling
    // holding a copy would keep the channel open past its owner's
    // death and mask the EOF the death detection relies on.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    std::vector<std::string> argv_strings = options.worker_argv;
    argv_strings.insert(
        argv_strings.end(),
        {"--worker", "--worker-id", std::to_string(w.id),
         "--coordinator-socket", "fd:" + std::to_string(sv[1])});
    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (std::string& s : argv_strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      fatal("fork failed");
      return;
    }
    if (pid == 0) {
      ::execvp(argv[0], argv.data());
      _exit(127);
    }
    ::close(sv[1]);
    w.pid = pid;
    w.chan = std::make_unique<MessageChannel>(sv[0]);
    w.reaped = false;
    w.hello = false;
    w.assigned.reset();
    w.steal_outstanding = false;
    ++out.stats.workers_spawned;
  };

  auto broadcast = [&](MsgType type) {
    for (WorkerProc& w : workers) {
      if (w.pid > 0 && w.chan) w.chan->send(type, "");
    }
  };

  auto start_cancel = [&] {
    if (cancel_broadcast) return;
    cancel_broadcast = true;
    broadcast(MsgType::kCancel);
    grace_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            options.shutdown_grace_seconds));
    // Queued-but-unassigned shards will not run: coverage is partial,
    // which the budget/interrupted flags below record.
    for (const std::uint64_t id : queue) shards.erase(id);
    queue.clear();
  };

  auto handle_death = [&](WorkerProc& w) {
    if (w.pid < 0) return;
    if (w.chan) w.chan->close();
    if (!w.reaped) {
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.reaped = true;
    }
    w.pid = -1;
    w.steal_outstanding = false;
    if (shutting_down) return;
    ++out.stats.worker_deaths;
    if (!w.hello) {
      ++w.spawn_failures;
      if (w.spawn_failures >= kMaxSpawnFailures) {
        fatal("worker " + std::to_string(w.id) +
              " repeatedly died before HELLO (bad worker binary or "
              "options?)");
        return;
      }
    }
    if (w.assigned.has_value()) {
      auto it = shards.find(*w.assigned);
      if (it == shards.end()) {
        // Result already merged; nothing to recover.
      } else if (cancel_broadcast) {
        // Under cancel nothing will ever run this shard again — workers
        // are not respawned and assign_work is a no-op — so requeueing
        // it would leave the queue permanently non-empty and the event
        // loop without an exit. Drop it the same way start_cancel
        // dropped the queued-but-unassigned shards: coverage is partial
        // and the budget/interrupted flags record that.
        shards.erase(it);
      } else {
        ShardState& st = it->second;
        ++st.deaths;
        // Prefer the dead worker's own journal: everything it already
        // explored (runs, bugs, counters) is in there, so the resumed
        // shard re-executes only the unflushed tail. Escapes were
        // shipped eagerly and need no recovery. A journal that does not
        // parse or names ranks outside the campaign is ignored: the
        // shard is requeued as it was first sent.
        if (!options.explorer.checkpoint_path.empty()) {
          const std::string journal = options.explorer.checkpoint_path +
                                      ".w" + std::to_string(w.id);
          std::string jerr;
          auto cp = core::load_checkpoint(journal, fingerprint, &jerr);
          if (cp.has_value() &&
              core::validate_checkpoint(*cp, options.explorer.nprocs,
                                        &jerr)) {
            st.cp = std::move(*cp);
            st.text = core::serialize_checkpoint(st.cp);
            merge.register_shard_sites(st.cp);
          }
        }
        if (st.deaths > kMaxShardRespawns) {
          merge.quarantine_shard();
          ++out.stats.shards_quarantined;
          shards.erase(it);
        } else {
          queue.push_front(st.id);
          ++out.stats.shards_requeued;
        }
      }
      w.assigned.reset();
    }
    if (!cancel_broadcast) spawn_worker(w);
  };

  auto protocol_error = [&](WorkerProc& w, const std::string& what) {
    DAMPI_LOG(kError) << "worker " << w.id << ": " << what
                      << " — killing and requeueing";
    if (w.pid > 0) ::kill(w.pid, SIGKILL);
    handle_death(w);
  };

  auto handle_message = [&](WorkerProc& w, WireMessage& msg) {
    std::string perr;
    switch (msg.type) {
      case MsgType::kHello: {
        const auto hello = parse_hello(msg.payload, &perr);
        if (!hello.has_value()) {
          protocol_error(w, "bad hello: " + perr);
          return;
        }
        if (hello->fingerprint != fingerprint) {
          fatal("worker options fingerprint mismatch\n  worker:      " +
                hello->fingerprint + "\n  coordinator: " + fingerprint);
          return;
        }
        w.hello = true;
        w.spawn_failures = 0;
        break;
      }
      case MsgType::kEscape: {
        const auto escape = parse_escape(msg.payload, fingerprint, &perr);
        if (!escape.has_value()) {
          protocol_error(w, "bad escape: " + perr);
          return;
        }
        if (!cancel_broadcast && merge.escape_is_new(*escape)) {
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
          protocol_error(w, "bad stolen shard: " + perr);
          return;
        }
        if (!cancel_broadcast) {
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
          protocol_error(w, "bad result: " + perr);
          return;
        }
        merge.add(result->result);
        if (!result->metrics_dump.empty()) {
          out.worker_metrics.emplace_back(w.id, result->metrics_dump);
        }
        shards.erase(result->shard_id);
        if (w.assigned.has_value() && *w.assigned == result->shard_id) {
          w.assigned.reset();
        }
        w.steal_outstanding = false;  // its walk is over; nothing to give
        break;
      }
      default:
        DAMPI_LOG(kWarn) << "worker " << w.id << ": unexpected message type "
                         << static_cast<int>(msg.type);
        break;
    }
  };

  auto assign_work = [&] {
    if (cancel_broadcast) return;
    for (WorkerProc& w : workers) {
      if (w.pid < 0 || !w.chan || !w.hello || w.assigned.has_value()) continue;
      if (queue.empty()) break;
      const std::uint64_t id = queue.front();
      queue.pop_front();
      w.assigned = id;
      // Retire the worker's previous journal before the shard goes out:
      // if the worker dies after this send but before it processes the
      // message (and removes the file itself), the death path would
      // otherwise requeue the *previous*, already-merged shard's state
      // and double-count it. Unlinking here happens-before the worker's
      // receipt, so the race window is closed.
      if (!options.explorer.checkpoint_path.empty()) {
        const std::string journal = options.explorer.checkpoint_path + ".w" +
                                    std::to_string(w.id);
        std::remove(journal.c_str());
      }
      if (!w.chan->send(MsgType::kShard,
                        serialize_shard(id, shards.at(id).text))) {
        w.chan->close();  // death path requeues on the next drain
      }
    }
    if (!queue.empty()) return;
    // Rebalance: every still-idle worker asks one distinct busy worker
    // to carve off half of its shallowest untried list.
    for (WorkerProc& w : workers) {
      if (w.pid < 0 || !w.chan || !w.hello || w.assigned.has_value()) continue;
      for (WorkerProc& victim : workers) {
        if (victim.id == w.id || victim.pid < 0 || !victim.chan ||
            !victim.assigned.has_value() || victim.steal_outstanding) {
          continue;
        }
        if (victim.chan->send(MsgType::kSteal, "")) {
          victim.steal_outstanding = true;
        }
        break;
      }
    }
  };

  for (WorkerProc& w : workers) {
    spawn_worker(w);
    if (!out.error.empty()) break;
  }

  // --- Event loop ----------------------------------------------------------
  while (out.error.empty()) {
    if (!external_cancel && options.explorer.cancel &&
        options.explorer.cancel->requested()) {
      external_cancel = true;
      start_cancel();
    }
    if (!cancel_broadcast &&
        merge.interleavings() >= options.explorer.max_interleavings) {
      budget_cancel = true;
      start_cancel();
    }

    // Drain every channel, then reap, then hand out work.
    for (WorkerProc& w : workers) {
      if (!w.chan || w.pid < 0) continue;
      for (;;) {
        WireMessage msg;
        const auto status = w.chan->recv(&msg, 0);
        if (status == MessageChannel::RecvStatus::kMessage) {
          handle_message(w, msg);
          if (!out.error.empty()) break;
          if (w.pid < 0) break;  // protocol_error path tore it down
          continue;
        }
        if (status == MessageChannel::RecvStatus::kClosed) handle_death(w);
        break;
      }
      if (!out.error.empty()) break;
    }
    if (!out.error.empty()) break;

    int wstatus = 0;
    pid_t reaped_pid;
    while ((reaped_pid = ::waitpid(-1, &wstatus, WNOHANG)) > 0) {
      for (WorkerProc& w : workers) {
        if (w.pid == reaped_pid) w.reaped = true;
      }
    }

    assign_work();
    if (!out.error.empty()) break;

    const bool any_assigned =
        std::any_of(workers.begin(), workers.end(), [](const WorkerProc& w) {
          return w.assigned.has_value();
        });
    const bool any_steal =
        std::any_of(workers.begin(), workers.end(), [](const WorkerProc& w) {
          return w.steal_outstanding;
        });
    if (queue.empty() && !any_assigned && !any_steal) {
      if (!shutting_down) {
        shutting_down = true;
        broadcast(MsgType::kShutdown);
        grace_deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   options.shutdown_grace_seconds));
      }
      const bool all_gone = std::all_of(
          workers.begin(), workers.end(),
          [](const WorkerProc& w) { return w.pid < 0 || w.reaped; });
      if (all_gone) break;
    }
    if ((shutting_down || cancel_broadcast) && Clock::now() > grace_deadline) {
      for (WorkerProc& w : workers) {
        if (w.pid > 0 && !w.reaped) ::kill(w.pid, SIGKILL);
      }
      if (shutting_down) break;
      // Cancelled workers that ignored the grace period die here; their
      // deaths drain above (no respawn under cancel).
      grace_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(
                                              options.shutdown_grace_seconds));
    }

    // Sleep until any channel has data (or 50 ms).
    std::vector<struct pollfd> pfds;
    for (WorkerProc& w : workers) {
      if (w.pid > 0 && w.chan && w.chan->valid()) {
        pfds.push_back({w.chan->fd(), POLLIN, 0});
      }
    }
    if (!pfds.empty()) {
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    }
  }

  // --- Teardown ------------------------------------------------------------
  for (WorkerProc& w : workers) {
    if (w.pid > 0) {
      if (!w.reaped) {
        if (!out.error.empty()) ::kill(w.pid, SIGKILL);
        int status = 0;
        ::waitpid(w.pid, &status, 0);
      }
      w.pid = -1;
    }
    if (w.chan) w.chan->close();
  }

  out.exploration = merge.finish();
  if (budget_cancel) out.exploration.interleaving_budget_exhausted = true;
  if (external_cancel) out.exploration.interrupted = true;
  if (out.error.empty() && !cancel_broadcast &&
      !options.explorer.checkpoint_path.empty()) {
    // Fully completed campaign: write the merged final state back to the
    // campaign journal (empty frontier = nothing left to resume).
    core::Checkpoint final_cp;
    final_cp.fingerprint = fingerprint;
    core::store_counters(out.exploration, &final_cp);
    core::save_checkpoint(final_cp, options.explorer.checkpoint_path);
    // Every shard's result is merged; retire the per-worker journals so
    // they can't shadow a later campaign sharing this checkpoint path.
    for (const WorkerProc& w : workers) {
      const std::string journal = options.explorer.checkpoint_path + ".w" +
                                  std::to_string(w.id);
      std::remove(journal.c_str());
    }
  }

  return out;
}

}  // namespace dampi::dist
