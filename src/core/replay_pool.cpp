#include "core/replay_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/strutil.hpp"
#include "core/decision_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dampi::core {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ReplayPool::ReplayPool(const ExplorerOptions& options,
                       const mpism::ProgramFn& program)
    : options_(options), program_(program), inline_context_(options) {
  const int workers = std::max(options.jobs, 1) - 1;
  stats_.jobs = std::max(options.jobs, 1);
  // Backlog cap: enough speculation to keep every worker busy across a
  // few consume/extend cycles without caching unbounded traces.
  backlog_cap_ = static_cast<std::size_t>(std::max(4 * workers, 8));
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ReplayPool::~ReplayPool() { shutdown(); }

bool ReplayPool::speculate(const Schedule& schedule) {
  if (threads_.empty()) return false;
  std::string key = serialize_schedule(schedule);
  std::lock_guard<std::mutex> lk(mu_);
  if (stop_) return false;
  if (entries_.count(key) != 0) return true;  // already on its way
  if (queue_.size() + done_unconsumed_ >= backlog_cap_) return false;
  Entry entry;
  entry.schedule = schedule;
  entries_.emplace(key, std::move(entry));
  queue_.push_back(std::move(key));
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  cv_work_.notify_one();
  return true;
}

std::size_t ReplayPool::outstanding() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();  // queued + running + done-unconsumed
}

SingleRun ReplayPool::spare() {
  std::lock_guard<std::mutex> lk(mu_);
  if (spares_.empty()) return {};
  SingleRun out = std::move(spares_.back());
  spares_.pop_back();
  return out;
}

void ReplayPool::recycle(SingleRun&& run) {
  std::lock_guard<std::mutex> lk(mu_);
  if (spares_.size() < threads_.size() + 1) spares_.push_back(std::move(run));
}

SingleRun ReplayPool::execute(ReplayContext& context, const Schedule& schedule,
                              std::uint64_t interleaving, bool speculative) {
  SingleRun run = spare();
  std::size_t in_flight = 0;
  std::size_t queue_depth = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++in_flight_;
    stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  }
  DAMPI_TEVENT(obs::EventKind::kRun, obs::Phase::kBegin,
               static_cast<std::int32_t>(speculative), 0, 0, interleaving);
  const double t0 = now_seconds();
  context.run(schedule, program_, &run);
  const double wall = now_seconds() - t0;
  DAMPI_TEVENT(obs::EventKind::kRun, obs::Phase::kEnd,
               static_cast<std::int32_t>(speculative), 0, 0, interleaving);
  {
    std::lock_guard<std::mutex> lk(mu_);
    --in_flight_;
    in_flight = in_flight_;
    queue_depth = queue_.size();
    if (speculative) {
      ++stats_.worker_runs;
    } else {
      ++stats_.inline_runs;
    }
    stats_.run_wall_seconds.add(wall);
    stats_.run_vtime_us.add(run.report.vtime_us);
  }
  if (options_.run_stats) {
    RunStats rs;
    rs.interleaving = interleaving;
    rs.speculative = speculative;
    rs.completed = run.report.completed;
    rs.wall_seconds = wall;
    rs.vtime_us = run.report.vtime_us;
    rs.runs_in_flight = in_flight;
    rs.queue_depth = queue_depth;
    std::lock_guard<std::mutex> lk(callback_mu_);
    options_.run_stats(rs);
  }
  return run;
}

void ReplayPool::worker_main(int index) {
  DAMPI_TRACE_THREAD_LANE(strfmt("worker %d", index));
  // Built and destroyed on this thread: its fiber stacks come from and
  // return to this thread's cache.
  ReplayContext context(options_);
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_work_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;  // queued leftovers are dropped by shutdown()
    const std::string key = std::move(queue_.front());
    queue_.pop_front();
    auto it = entries_.find(key);
    if (it == entries_.end()) continue;  // stolen by take()
    it->second.state = Entry::State::kRunning;
    const Schedule schedule = it->second.schedule;
    lk.unlock();
    SingleRun run = execute(context, schedule, /*interleaving=*/0,
                            /*speculative=*/true);
    lk.lock();
    // The entry may only have been erased by shutdown(); take() waits for
    // kDone before erasing a running entry.
    it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.outcome = std::move(run);
      it->second.state = Entry::State::kDone;
      ++done_unconsumed_;
      cv_done_.notify_all();
    }
  }
}

SingleRun ReplayPool::take(const Schedule& schedule,
                           std::uint64_t interleaving) {
  if (threads_.empty()) {
    // Nothing is ever speculated without workers: skip the cache key.
    return execute(inline_context_, schedule, interleaving,
                   /*speculative=*/false);
  }
  const std::string key = serialize_schedule(schedule);
  std::unique_lock<std::mutex> lk(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.state == Entry::State::kQueued) {
    // Needed right now: steal it back from the queue and run it here
    // rather than waiting behind other speculations.
    queue_.erase(std::find(queue_.begin(), queue_.end(), key));
    entries_.erase(it);
    it = entries_.end();
  }
  if (it == entries_.end()) {
    lk.unlock();
    return execute(inline_context_, schedule, interleaving,
                   /*speculative=*/false);
  }
  cv_done_.wait(lk, [&] { return it->second.state == Entry::State::kDone; });
  SingleRun out = std::move(it->second.outcome);
  entries_.erase(it);
  --done_unconsumed_;
  ++stats_.speculative_hits;
  if (options_.run_stats) {
    // Re-announce the consumed run under its deterministic index so a
    // callback watching exploration order sees every interleaving once.
    std::size_t in_flight = in_flight_;
    std::size_t queue_depth = queue_.size();
    lk.unlock();
    RunStats rs;
    rs.interleaving = interleaving;
    rs.speculative = false;
    rs.completed = out.report.completed;
    rs.vtime_us = out.report.vtime_us;
    rs.runs_in_flight = in_flight;
    rs.queue_depth = queue_depth;
    std::lock_guard<std::mutex> cb(callback_mu_);
    options_.run_stats(rs);
  }
  return out;
}

void ReplayPool::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return;
    stop_ = true;
    // Drop queued-but-unstarted work; running replays finish into the
    // cache and are counted as waste below.
    for (const std::string& key : queue_) entries_.erase(key);
    queue_.clear();
    cv_work_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < done_unconsumed_; ++i) {
    DAMPI_TEVENT(obs::EventKind::kRunDiscard, obs::Phase::kInstant);
  }
  stats_.speculative_waste += done_unconsumed_;
  done_unconsumed_ = 0;
  entries_.clear();
}

PoolStats ReplayPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace dampi::core
