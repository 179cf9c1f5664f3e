#include "dist/pool.hpp"

#include <algorithm>
#include <csignal>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hpp"

namespace dampi::dist {

WorkerPool::WorkerPool(int workers, std::vector<std::string> argv,
                       std::string fingerprint, double grace_seconds)
    : workers_(static_cast<std::size_t>(std::max(1, workers))),
      argv_(std::move(argv)),
      fingerprint_(std::move(fingerprint)),
      grace_seconds_(grace_seconds) {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i].id = static_cast<int>(i);
  }
}

void WorkerPool::fail(const std::string& message) {
  if (!error_.empty()) return;
  error_ = message;
  DAMPI_LOG(kError) << "worker pool: " << message;
}

void WorkerPool::spawn(Worker& w) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    fail("socketpair failed");
    return;
  }
  // Coordinator-side ends must not leak into workers: a sibling holding
  // a copy would keep the channel open past its owner's death and mask
  // the EOF the death detection relies on.
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
  std::vector<std::string> argv_strings = argv_;
  argv_strings.insert(argv_strings.end(),
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
    fail("fork failed");
    return;
  }
  if (pid == 0) {
    ::execvp(argv[0], argv.data());
    _exit(127);
  }
  ::close(sv[1]);
  w.pid = pid;
  w.chan = std::make_unique<MessageChannel>(sv[0]);
  w.hello = false;
  w.task.reset();
  w.steal_outstanding = false;
  ++spawned_;
}

void WorkerPool::broadcast(MsgType type) {
  for (Worker& w : workers_) {
    if (w.live()) w.chan->send(type, "");
  }
}

void WorkerPool::arm_grace() {
  grace_deadline_ =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(grace_seconds_));
}

void WorkerPool::died(Worker& w) {
  if (w.pid < 0) return;
  // Its channel hit EOF: the process exited or is about to.
  w.chan->close();
  int status = 0;
  ::waitpid(w.pid, &status, 0);
  w.pid = -1;
  if (shutting_down_) return;
  ++deaths_;
  if (!w.hello && ++w.spawn_failures >= kMaxSpawnFailures) {
    fail("worker " + std::to_string(w.id) +
         " repeatedly died before HELLO (bad worker binary or options?)");
    return;
  }
  // Under cancel nothing will ever run the task again — no respawns, no
  // assignments — so requeueing it would leave the queue non-empty and
  // the pool without an exit. It is dropped, as the queued tasks were:
  // coverage is partial, which the owner records.
  std::optional<Task> task = std::exchange(w.task, std::nullopt);
  if (task.has_value() && !cancelling_) {
    ++task->deaths;
    if (hooks_->on_lost) hooks_->on_lost(w, *task);
    if (task->deaths > kMaxShardRespawns) {
      if (hooks_->on_abandoned) hooks_->on_abandoned(*task);
    } else {
      queue_.push_front(std::move(*task));
      ++requeued_;
    }
  }
  if (!cancelling_) spawn(w);
}

void WorkerPool::protocol_error(Worker& w, const std::string& what) {
  DAMPI_LOG(kError) << "worker " << w.id << ": " << what
                    << " — killing and requeueing";
  if (w.pid > 0) ::kill(w.pid, SIGKILL);
  died(w);
}

void WorkerPool::handle(Worker& w, WireMessage& msg) {
  if (msg.type != MsgType::kHello) {
    hooks_->on_message(w, msg);
    return;
  }
  std::string error;
  const auto hello = parse_hello(msg.payload, &error);
  if (!hello.has_value()) {
    protocol_error(w, "bad hello: " + error);
  } else if (hello->fingerprint != fingerprint_) {
    fail("worker options fingerprint mismatch\n  worker:      " +
         hello->fingerprint + "\n  coordinator: " + fingerprint_);
  } else {
    w.hello = true;
    w.spawn_failures = 0;
  }
}

std::string WorkerPool::run(const Hooks& hooks) {
  if (queue_.empty()) return {};
  hooks_ = &hooks;
  // Writes to a dead worker must fail with EPIPE, not kill the pool.
  std::signal(SIGPIPE, SIG_IGN);
  for (Worker& w : workers_) {
    spawn(w);
    if (!error_.empty()) break;
  }

  while (error_.empty()) {
    if (hooks.cancel_requested && hooks.cancel_requested() && !cancelling_) {
      cancelling_ = true;
      broadcast(MsgType::kCancel);
      arm_grace();
      queue_.clear();
    }

    // Drain every channel, then hand out work.
    for (Worker& w : workers_) {
      while (w.live() && error_.empty()) {
        WireMessage msg;
        const auto status = w.chan->recv(&msg, 0);
        if (status == MessageChannel::RecvStatus::kMessage) {
          handle(w, msg);
          continue;
        }
        if (status == MessageChannel::RecvStatus::kClosed) died(w);
        break;
      }
    }
    if (!error_.empty()) break;
    if (!cancelling_) {
      for (Worker& w : workers_) {
        if (queue_.empty()) break;
        if (!w.idle()) continue;
        w.task = std::move(queue_.front());
        queue_.pop_front();
        // A failed send closes the channel: the drain above then finds
        // the worker dead and requeues the task.
        if (!w.chan->send(w.task->type, w.task->payload)) w.chan->close();
      }
      if (queue_.empty() && hooks.on_idle) hooks.on_idle();
    }
    if (!error_.empty()) break;

    const bool busy =
        !queue_.empty() ||
        std::any_of(workers_.begin(), workers_.end(),
                    [](const Worker& w) { return w.task.has_value(); });
    if (!busy) {
      if (!shutting_down_) {
        shutting_down_ = true;
        broadcast(MsgType::kShutdown);
        arm_grace();
      }
      if (std::all_of(workers_.begin(), workers_.end(),
                      [](const Worker& w) { return w.pid < 0; })) {
        break;
      }
    }
    if ((shutting_down_ || cancelling_) &&
        std::chrono::steady_clock::now() > grace_deadline_) {
      for (Worker& w : workers_) {
        if (w.pid > 0) ::kill(w.pid, SIGKILL);
      }
      if (shutting_down_) break;
      // Cancelled workers that ignored the grace period die here; their
      // deaths drain above (no respawn under cancel).
      arm_grace();
    }

    // Sleep until any channel has data (or 50 ms).
    std::vector<struct pollfd> pfds;
    for (const Worker& w : workers_) {
      if (w.live() && w.chan->valid()) {
        pfds.push_back({w.chan->fd(), POLLIN, 0});
      }
    }
    if (!pfds.empty()) {
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    }
  }

  // Teardown: every worker is reaped before the pool returns.
  for (Worker& w : workers_) {
    if (w.pid > 0) {
      if (!error_.empty()) ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
    if (w.chan) w.chan->close();
  }
  return error_;
}

}  // namespace dampi::dist
