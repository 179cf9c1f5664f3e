// Worker-process pool (DESIGN.md §4.12), the coordinator side of both a
// distributed campaign (tasks are shards) and a fault sweep (plans). It
// spawns `verify_cli --worker` processes, checks each HELLO against the
// fingerprint, hands queued tasks to idle workers, requeues the task of
// a worker that dies and respawns it, and shuts down with CANCEL or
// SHUTDOWN, a grace period, then SIGKILL. Answers go to the owner's
// Hooks.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"

namespace dampi::dist {

/// A task survives this many worker deaths; the next one abandons it (a
/// campaign quarantines the shard, a sweep records a sweep-error plan).
inline constexpr int kMaxShardRespawns = 2;
/// A worker slot that keeps dying before completing HELLO (e.g. the
/// binary fails to exec) fails the pool after this many attempts.
inline constexpr int kMaxSpawnFailures = 3;
/// After CANCEL/SHUTDOWN, stragglers get this long before SIGKILL.
inline constexpr double kShutdownGraceSeconds = 10.0;

/// A frame sent to one worker at a time, resent after a death.
struct Task {
  std::uint64_t id = 0;
  MsgType type = MsgType::kShard;
  std::string payload;
  int deaths = 0;  ///< workers that died holding it
};

struct Worker {
  int id = -1;
  pid_t pid = -1;  ///< -1 once its process is reaped
  std::unique_ptr<MessageChannel> chan;
  bool hello = false;
  int spawn_failures = 0;
  std::optional<Task> task;  ///< assigned and not answered yet
  /// A STEAL was sent and neither STOLEN, NO_STEAL nor the worker's
  /// RESULT has answered it yet (campaigns only; implies a task).
  bool steal_outstanding = false;

  bool live() const { return pid > 0; }
  bool idle() const { return live() && hello && !task.has_value(); }
};

class WorkerPool {
 public:
  struct Hooks {
    /// Every message but HELLO; an answer ends with finish(w).
    std::function<void(Worker&, WireMessage&)> on_message;
    /// Polled every turn. Once true: CANCEL to every worker, no more
    /// assignments or respawns, queued and orphaned tasks dropped.
    std::function<bool()> cancel_requested;
    /// `task`'s worker died; it is requeued (after this may rewrite the
    /// payload) unless it lost more than kMaxShardRespawns workers, when
    /// it goes to on_abandoned instead.
    std::function<void(Worker&, Task&)> on_lost;
    std::function<void(const Task&)> on_abandoned;
    /// The queue is empty after assigning (a campaign rebalances here).
    std::function<void()> on_idle;
  };

  /// `argv` is a worker's base argv (argv[0] = executable); each worker
  /// gets `--worker --worker-id N --coordinator-socket fd:M` appended, M
  /// being its end of a socketpair it inherits across exec. Its HELLO
  /// must carry `fingerprint`.
  WorkerPool(int workers, std::vector<std::string> argv,
             std::string fingerprint, double grace_seconds);

  void push(Task task) { queue_.push_back(std::move(task)); }

  /// Runs until every task is answered or dropped and every worker is
  /// reaped; returns the failure that ended the pool early, or "".
  std::string run(const Hooks& hooks);

  /// `w` answered its task and is idle again.
  void finish(Worker& w) { w.task.reset(); }
  /// Kills `w` over a malformed message; its task is requeued.
  void protocol_error(Worker& w, const std::string& what);
  /// Ends the pool with `message` (the first failure wins); every worker
  /// is killed.
  void fail(const std::string& message);

  std::vector<Worker>& workers() { return workers_; }
  bool cancelling() const { return cancelling_; }
  int spawned() const { return spawned_; }
  int deaths() const { return deaths_; }
  std::uint64_t requeued() const { return requeued_; }

 private:
  void spawn(Worker& w);
  void died(Worker& w);
  void handle(Worker& w, WireMessage& msg);
  void broadcast(MsgType type);
  void arm_grace();

  std::vector<Worker> workers_;
  std::vector<std::string> argv_;
  std::string fingerprint_;
  double grace_seconds_;
  std::deque<Task> queue_;
  const Hooks* hooks_ = nullptr;
  std::string error_;
  bool cancelling_ = false;
  bool shutting_down_ = false;
  std::chrono::steady_clock::time_point grace_deadline_{};
  int spawned_ = 0;
  int deaths_ = 0;
  std::uint64_t requeued_ = 0;
};

}  // namespace dampi::dist
