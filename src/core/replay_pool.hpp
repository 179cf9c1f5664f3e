// ReplayPool: a deterministic speculative-replay worker pool.
//
// Guided replays are embarrassingly parallel — each replay executor owns
// a ReplayContext (the exploring thread one, every worker one), and a
// context's runs never see each other's state — but the explorer's DFS
// must consume outcomes in a fixed order to stay reproducible. The pool
// reconciles the two: the exploring thread *speculates* schedules it
// knows it will need later (every untried sibling alternative on the DFS
// stack has a pinned prefix, so its decision file is already exact), and
// workers execute them out of order into a cache keyed by the serialized
// decision file. take() then yields outcomes in exactly the order the
// sequential walk would have produced them — from the cache when a
// speculation landed, inline on the calling thread otherwise — so
// exploration results are bit-identical for every jobs value.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "core/explorer.hpp"

namespace dampi::core {

class ReplayPool {
 public:
  /// Spawns `max(jobs - 1, 0)` workers; the exploring thread is the
  /// remaining job. `options` and `program` must outlive the pool.
  ReplayPool(const ExplorerOptions& options, const mpism::ProgramFn& program);
  ~ReplayPool();

  ReplayPool(const ReplayPool&) = delete;
  ReplayPool& operator=(const ReplayPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Queue `schedule` for speculative execution; a duplicate of an
  /// already queued/running/cached speculation is a harmless no-op.
  /// Returns false when the caller should stop offering work: the
  /// backlog is saturated, the pool has no workers, or shutdown began.
  bool speculate(const Schedule& schedule);

  /// Queued + running + completed-but-unconsumed speculations — what the
  /// caller should count against its interleaving budget before
  /// speculating more.
  std::size_t outstanding() const;

  /// The outcome of running `schedule`, bit-identical to calling
  /// run_guided_once here: consumes a cached speculative result, waits
  /// for an in-flight one, or runs inline on the calling thread.
  /// `interleaving` is the 1-based deterministic index reported to the
  /// RunStats callback.
  SingleRun take(const Schedule& schedule, std::uint64_t interleaving);

  /// Hands back an outcome the caller is done with; its storage is
  /// reused by a later replay.
  void recycle(SingleRun&& run);

  /// Stop the workers: queued-but-unstarted speculations are dropped,
  /// running ones finish into the cache (counted as waste). Idempotent;
  /// the destructor calls it. After shutdown, stats() is final.
  void shutdown();

  /// Aggregate counters; complete once shutdown() has run.
  PoolStats stats() const;

 private:
  struct Entry {
    enum class State { kQueued, kRunning, kDone };
    State state = State::kQueued;
    Schedule schedule;
    SingleRun outcome;
  };

  void worker_main(int index);
  /// Execute one replay in `context` (the calling thread's own), record
  /// its histogram samples, and deliver the RunStats callback.
  SingleRun execute(ReplayContext& context, const Schedule& schedule,
                    std::uint64_t interleaving, bool speculative);
  /// A recycled outcome to run into (or an empty one).
  SingleRun spare();

  const ExplorerOptions& options_;
  const mpism::ProgramFn& program_;
  std::size_t backlog_cap_ = 0;
  /// The exploring thread's context (workers own theirs).
  ReplayContext inline_context_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  ///< workers: queue non-empty or stop
  std::condition_variable cv_done_;  ///< consumers: an entry became kDone
  std::map<std::string, Entry> entries_;
  std::deque<std::string> queue_;  ///< keys of kQueued entries, FIFO
  std::size_t done_unconsumed_ = 0;
  std::size_t in_flight_ = 0;  ///< replays executing now (workers + inline)
  bool stop_ = false;
  PoolStats stats_;
  /// Recycled outcomes, at most one per job.
  std::vector<SingleRun> spares_;

  /// Serializes ExplorerOptions::run_stats delivery without holding mu_.
  std::mutex callback_mu_;

  std::vector<std::thread> threads_;
};

}  // namespace dampi::core
