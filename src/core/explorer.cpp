#include "core/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/por.hpp"
#include "mpism/fault.hpp"
#include "obs/trace.hpp"

namespace dampi::core {
namespace {

/// Dedup alerts through a keyed set instead of a linear scan (the vector
/// in ExploreResult keeps first-seen order for reporting).
void collect_alerts(const RunTrace& trace,
                    std::unordered_set<std::string>& seen,
                    ExploreResult& result) {
  for (const UnsafeAlert& alert : trace.alerts) {
    if (seen.insert(alert.detail).second) {
      result.unsafe_alerts.push_back(alert.detail);
    }
  }
}

/// Reproducer for a failing run: the decisions that were forced plus
/// every match the run actually observed. Replaying this schedule pins
/// the entire matching, so even a bug first seen in a native race (empty
/// forced set) replays deterministically.
Schedule reproducer_schedule(const Schedule& forced, const RunTrace& trace) {
  Schedule out = forced;
  for (const EpochRecord& epoch : trace.epochs) {
    if (epoch.matched_src_world < 0) continue;  // never completed
    out.forced.emplace(epoch.key, epoch.matched_src_world);
  }
  return out;
}

void record_bug_if_any(const mpism::RunReport& report,
                       const Schedule& schedule, const RunTrace& trace,
                       std::uint64_t interleaving, ExploreResult& result) {
  // External cancellation is an interruption of the campaign, not a
  // property of the program: the run is torn down, never judged.
  if (report.cancelled) return;
  if (report.deadlocked) {
    BugRecord bug;
    bug.kind = BugRecord::Kind::kDeadlock;
    bug.interleaving = interleaving;
    bug.deadlock_detail = report.deadlock_detail;
    bug.schedule = reproducer_schedule(schedule, trace);
    result.bugs.push_back(std::move(bug));
  } else if (!report.errors.empty()) {
    BugRecord bug;
    bug.kind = BugRecord::Kind::kError;
    bug.interleaving = interleaving;
    bug.errors = report.errors;
    bug.schedule = reproducer_schedule(schedule, trace);
    result.bugs.push_back(std::move(bug));
  } else if (report.timed_out) {
    // Watchdog expiry: the interleaving wedged (livelock, unbounded
    // spin, pathological slowness) instead of deadlocking. The partial
    // trace still pins every match the run made before it was killed,
    // so the schedule reproduces the hang deterministically.
    BugRecord bug;
    bug.kind = BugRecord::Kind::kHang;
    bug.interleaving = interleaving;
    bug.deadlock_detail = report.stop_reason;
    bug.schedule = reproducer_schedule(schedule, trace);
    result.bugs.push_back(std::move(bug));
  }
}

/// A run whose failure may be transient (injected fault, watchdog expiry
/// under load, program error): worth re-executing. Deadlocks are
/// verdicts — deterministic by construction — and cancellation means the
/// campaign itself is being torn down.
bool failed_retryably(const mpism::RunReport& report) {
  return !report.deadlocked && !report.cancelled &&
         (report.timed_out || !report.errors.empty());
}

/// Steal granularity floor: a frontier list must hold at least this many
/// alternatives before a thief may carve it. Carving a 1-element list
/// moves the victim's entire remaining work — on small frontiers the
/// shard then ping-pongs between workers, each steal paying a full
/// checkpoint round trip to transfer one replay. Declining (kNoSteal)
/// lets the victim just finish instead.
constexpr std::size_t kMinStealFrontier = 2;

/// Work-stealing carve: remove half of the shallowest stealable untried
/// list (shallowest = largest subtrees, the classic steal heuristic) and
/// package it as a resumable shard checkpoint. Ownership of every prefix
/// site — victim frames 0..pos — transfers to the coordinator: both the
/// victim and the thief now *escape* newly revealed alternatives there,
/// so the coordinator's per-site dedup keeps shard accounting
/// exactly-once. Returns nullptr when no list reaches kMinStealFrontier:
/// the carve never empties a list, and never fires at all when the
/// victim's frontier is too small to be worth splitting.
std::shared_ptr<Checkpoint> carve_steal(std::vector<DfsFrame>& stack,
                                        const std::string& fingerprint) {
  int pos = -1;
  for (int i = 0; i < static_cast<int>(stack.size()); ++i) {
    if (stack[static_cast<std::size_t>(i)].untried.size() >=
        kMinStealFrontier) {
      pos = i;
      break;
    }
  }
  if (pos < 0) return nullptr;

  DfsFrame& victim = stack[static_cast<std::size_t>(pos)];
  // The victim consumes untried from the back; steal from the front so
  // its imminent work is untouched. Floor division keeps at least one
  // alternative on each side (untried.size() >= kMinStealFrontier).
  const std::size_t take = victim.untried.size() / 2;
  std::vector<mpism::Rank> stolen(victim.untried.begin(),
                                  victim.untried.begin() +
                                      static_cast<std::ptrdiff_t>(take));
  victim.untried.erase(victim.untried.begin(),
                       victim.untried.begin() +
                           static_cast<std::ptrdiff_t>(take));

  auto shard = std::make_shared<Checkpoint>();
  shard->fingerprint = fingerprint;
  shard->frames.assign(stack.begin(),
                       stack.begin() + static_cast<std::ptrdiff_t>(pos) + 1);
  // Prefix frames shallower than pos may hold sub-threshold untried
  // lists the victim keeps; the thief gets only the stolen half.
  for (DfsFrame& frame : shard->frames) {
    frame.untried.clear();
    frame.escape_alts = true;
  }
  shard->frames.back().untried = std::move(stolen);
  // Ownership transfer on the victim side too: every prefix site is now
  // shared with the thief, so newly revealed alternatives there must go
  // through the coordinator's dedup.
  for (int j = 0; j <= pos; ++j) {
    stack[static_cast<std::size_t>(j)].escape_alts = true;
  }
  return shard;
}

}  // namespace

DecisionFootprint frame_footprint(const DfsFrame& frame) {
  DecisionFootprint fp;
  fp.rank = frame.key.rank;
  fp.comm = frame.comm;
  fp.tag = frame.tag;
  fp.candidates.assign(frame.seen.begin(), frame.seen.end());  // sorted
  fp.vc = frame.vc;
  return fp;
}

Explorer::Explorer(ExplorerOptions options) : options_(std::move(options)) {}

void Explorer::extend_stack(const RunTrace& trace, int flip_pos,
                            ExploreResult& result) {
  const std::vector<const EpochRecord*>& sorted = trace.sorted();
  // Epoch lookup by key for the prefix frames: a sorted flat index into
  // `sorted`, rebuilt in place each run (keys are unique per trace).
  by_key_.clear();
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    by_key_.emplace_back(sorted[i]->key, i);
  }
  std::sort(by_key_.begin(), by_key_.end());
  in_prefix_.assign(sorted.size(), 0);

  // Sleep-set pruning (POR sleep, DESIGN.md §4.14): the frames
  // truncated when this flip was chosen were fully explored subtrees.
  // A decision site reappearing below the new sibling whose decision
  // provably commutes with the flip need not re-enumerate the sources
  // that subtree already covered — re-ordering commuting decisions only
  // permutes equivalent interleavings. Those sources go to sleep (and
  // into `seen`, which also keeps prefix merging and distributed
  // per-site dedup from waking them).
  std::map<EpochKey, const DfsFrame*> harvested;
  DecisionFootprint flip_fp;
  const bool pruning = options_.por == PorMode::kSleep && flip_pos >= 0 &&
                       !pending_sleep_.empty();
  if (pruning) {
    for (const DfsFrame& h : pending_sleep_) harvested[h.key] = &h;
    flip_fp = frame_footprint(stack_[static_cast<std::size_t>(flip_pos)]);
  }

  // Prefix frames: verify the guided replay reproduced each decision
  // (replay-determinism soundness check) and — in unbounded mode only —
  // merge in any alternatives this run revealed that the creating run
  // could not see (e.g. a send that was causally ordered in the old
  // outcome but concurrent in the new one). Full coverage is only
  // promised without a mixing bound; with one, accumulating prefix
  // alternatives would defeat the window and re-explode the search.
  const bool merge_prefix_alts = !options_.mixing_bound.has_value();
  for (int j = 0; j <= flip_pos; ++j) {
    DfsFrame& frame = stack_[static_cast<std::size_t>(j)];
    auto hit = std::lower_bound(by_key_.begin(), by_key_.end(), frame.key,
                                [](const auto& entry, const EpochKey& key) {
                                  return entry.first < key;
                                });
    const EpochRecord* prefix_epoch = nullptr;
    if (hit != by_key_.end() && hit->first == frame.key) {
      in_prefix_[hit->second] = 1;
      prefix_epoch = sorted[hit->second];
    }
    if (prefix_epoch == nullptr ||
        prefix_epoch->matched_src_world != frame.taken_src) {
      ++result.prefix_mismatches;
      DAMPI_LOG(kWarn) << "replay prefix mismatch at epoch (rank "
                       << frame.key.rank << ", nd " << frame.key.nd_index
                       << ")";
      continue;
    }
    if (merge_prefix_alts && frame.record_alts) {
      for (const auto& [src, match] : prefix_epoch->alternatives) {
        if (frame.seen.count(src) != 0) {
          if (frame.sleep.count(src) != 0) ++result.por_sleep_hits;
          continue;
        }
        if (frame.seen.insert(src).second) {
          if (frame.escape_alts) {
            // Coordinator-owned site: report instead of exploring, so a
            // sharded campaign explores the alternative exactly once no
            // matter how many workers' runs reveal it. Without a hook
            // the alternative would be lost and the walk would report
            // a coverage it never had.
            DAMPI_CHECK_MSG(options_.on_escape,
                            "an escape_alts frame revealed a new source "
                            "but ExplorerOptions::on_escape is unset");
            options_.on_escape(EscapedAlt{
                {stack_.begin(),
                 stack_.begin() + static_cast<std::ptrdiff_t>(j) + 1},
                src});
          } else {
            frame.untried.push_back(src);
          }
        }
      }
    }
  }

  // Budget for epochs discovered below the flip: unbounded mode has no
  // window; bounded mode inherits the flipped frame's remaining budget
  // (anchored windows). Initial-trace epochs always record alternatives
  // and each carries a fresh window of k.
  constexpr int kNoLimit = 1 << 28;
  const int k = options_.mixing_bound.value_or(kNoLimit);
  const int window_budget =
      flip_pos < 0 ? kNoLimit
                   : stack_[static_cast<std::size_t>(flip_pos)].mix_budget;

  int new_depth = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (in_prefix_[i] != 0) continue;
    const EpochRecord* epoch = sorted[i];
    ++new_depth;
    DfsFrame frame;
    frame.key = epoch->key;
    frame.lc = epoch->lc;
    frame.taken_src = epoch->matched_src_world;
    frame.comm = epoch->comm;
    frame.tag = epoch->tag;
    frame.vc = epoch->vc;
    frame.seen.insert(frame.taken_src);
    if (pruning) {
      // Same decision site, fully explored in the commuting sibling
      // subtree: inherit its covered sources as the sleep set. The
      // harvested seen set already folds in anything *it* inherited, so
      // pruning chains across successive siblings.
      auto hit = harvested.find(frame.key);
      if (hit != harvested.end()) {
        if (independent(flip_fp, frame_footprint(*hit->second))) {
          for (const mpism::Rank src : hit->second->seen) {
            if (src == frame.taken_src) continue;
            if (frame.seen.insert(src).second) {
              frame.sleep.insert(src);
              ++result.por_pruned;
            }
          }
          if (!frame.sleep.empty()) {
            DAMPI_TEVENT(obs::EventKind::kPorPrune, obs::Phase::kInstant,
                         frame.key.rank,
                         static_cast<std::int32_t>(frame.key.nd_index),
                         static_cast<std::int32_t>(frame.sleep.size()));
          }
        } else {
          ++result.por_dependent_pairs;
        }
      }
    }
    const bool within_window = new_depth <= window_budget;
    frame.mix_budget =
        flip_pos < 0 ? k : std::max(window_budget - new_depth, 0);
    frame.record_alts = within_window && !epoch->in_ignored_region;
    if (frame.record_alts) {
      frame.untried.reserve(epoch->alternatives.size());
      for (const auto& [src, match] : epoch->alternatives) {
        if (frame.seen.insert(src).second) {
          frame.untried.push_back(src);
        } else if (frame.sleep.count(src) != 0) {
          ++result.por_sleep_hits;
        }
      }
    }
    DAMPI_TEVENT(obs::EventKind::kDecisionPush, obs::Phase::kInstant,
                 frame.key.rank,
                 static_cast<std::int32_t>(frame.key.nd_index),
                 static_cast<std::int32_t>(frame.untried.size()));
    stack_.push_back(std::move(frame));
  }

  // The harvest was for this extension only: the next truncation
  // collects the next fully explored subtree.
  if (flip_pos >= 0) pending_sleep_.clear();
}

void Explorer::schedule_for(int frame_pos, mpism::Rank alt,
                            Schedule* out) const {
  out->forced.clear();
  for (int j = 0; j < frame_pos; ++j) {
    const DfsFrame& f = stack_[static_cast<std::size_t>(j)];
    out->forced[f.key] = f.taken_src;
  }
  out->forced[stack_[static_cast<std::size_t>(frame_pos)].key] = alt;
}

ExploreResult Explorer::explore(const mpism::ProgramFn& program,
                                const RunObserver& observer) {
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  ExploreResult result;
  stack_.clear();
  pending_sleep_.clear();
  std::unordered_set<std::string> alert_keys;

  // One CancelSource per campaign: external callers (SIGINT bridge,
  // tests) may supply it; the global wall-budget watchdog below fires
  // the same source. Must exist before the context copies options into
  // its per-run plumbing.
  if (!options_.cancel) {
    options_.cancel = std::make_shared<mpism::CancelSource>();
  }
  const std::shared_ptr<mpism::CancelSource> cancel = options_.cancel;
  const std::string fingerprint = options_fingerprint(options_);

  // Every replay of the walk runs in this one warm context, into `run`,
  // whose storage the next replay reuses.
  ReplayContext context(options_);
  SingleRun run;
  DAMPI_TRACE_THREAD_LANE("explore");

  // Global wall budget enforced *inside* runs: a watchdog thread fires
  // the campaign CancelSource at the deadline, so even an in-flight
  // replay unwinds promptly instead of the budget only being noticed
  // between runs.
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_stop = false;
  std::atomic<bool> wall_budget_fired{false};
  std::thread watchdog;
  if (options_.max_wall_seconds < 1e9) {
    const auto deadline =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(options_.max_wall_seconds));
    watchdog = std::thread([&, deadline] {
      std::unique_lock<std::mutex> lk(wd_mu);
      if (!wd_cv.wait_until(lk, deadline, [&] { return wd_stop; })) {
        wall_budget_fired.store(true, std::memory_order_release);
        lk.unlock();
        cancel->cancel("global wall budget exhausted");
      }
    });
  }
  auto stop_watchdog = [&] {
    if (!watchdog.joinable()) return;
    {
      std::lock_guard<std::mutex> lk(wd_mu);
      wd_stop = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  };

  // Crash-safe frontier journal (no-op without a checkpoint path).
  auto flush_checkpoint = [&] {
    if (options_.checkpoint_path.empty()) return;
    Checkpoint cp;
    cp.fingerprint = fingerprint;
    store_counters(result, &cp);
    cp.frames = stack_;
    cp.pending_sleep = pending_sleep_;
    if (options_.fault) cp.fault_fires = options_.fault->fire_counts();
    DAMPI_TEVENT(obs::EventKind::kCheckpoint, obs::Phase::kBegin,
                 static_cast<std::int32_t>(stack_.size()), 0, 0,
                 static_cast<std::int32_t>(result.interleavings));
    const bool ok = save_checkpoint(cp, options_.checkpoint_path);
    DAMPI_TEVENT(obs::EventKind::kCheckpoint, obs::Phase::kEnd,
                 static_cast<std::int32_t>(stack_.size()), 0, 0,
                 static_cast<std::int32_t>(result.interleavings));
    if (ok) {
      ++result.checkpoint_writes;
    } else {
      DAMPI_LOG(kWarn) << "checkpoint write failed: "
                       << options_.checkpoint_path;
    }
  };

  // One timed replay of `schedule` into `run`, announced to the
  // RunStats callback under its 1-based interleaving index.
  auto replay = [&](const Schedule& schedule, std::uint64_t index) {
    DAMPI_TEVENT(obs::EventKind::kRun, obs::Phase::kBegin, 0, 0, 0, index);
    const auto start = std::chrono::steady_clock::now();
    context.run(schedule, program, &run);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    DAMPI_TEVENT(obs::EventKind::kRun, obs::Phase::kEnd, 0, 0, 0, index);
    if (options_.run_stats) {
      RunStats rs;
      rs.interleaving = index;
      rs.completed = run.report.completed;
      rs.wall_seconds = wall;
      rs.vtime_us = run.report.vtime_us;
      options_.run_stats(rs);
    }
  };

  // Retry wrapper: a retryably-failed run (error or watchdog expiry —
  // possibly transient, e.g. an injected flaky fault) is re-executed up
  // to max_retries times with exponential backoff (1 ms, doubling,
  // capped at 1 s). The final outcome, whatever it is, is the one judged.
  auto take_with_retry = [&](const Schedule& schedule,
                             std::uint64_t index) -> const SingleRun& {
    replay(schedule, index);
    int attempt = 0;
    while (failed_retryably(run.report) && attempt < options_.max_retries &&
           !cancel->requested()) {
      ++attempt;
      ++result.retries;
      DAMPI_TEVENT(obs::EventKind::kRetry, obs::Phase::kInstant, attempt, 0, 0,
                   static_cast<std::int32_t>(index));
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(1 << std::min(attempt - 1, 10), 1000)));
      replay(schedule, index);
    }
    return run;
  };

  bool aborted_discovery = false;
  if (options_.resume_from) {
    // Continue a journalled walk: restore the frontier and accumulated
    // verdicts, skip discovery entirely (only the original walk executed
    // the SELF_RUN, so first-run stats stay zero).
    const Checkpoint& cp = *options_.resume_from;
    stack_ = cp.frames;
    pending_sleep_ = cp.pending_sleep;
    restore_counters(cp, &result);
    // Alerts are re-admitted through the walk's dedup set, which the
    // runs below keep extending.
    result.unsafe_alerts.clear();
    for (const std::string& alert : cp.unsafe_alerts) {
      if (alert_keys.insert(alert).second) {
        result.unsafe_alerts.push_back(alert);
      }
    }
    // Restore fault-plan fire counters: a flaky cap exhausted before the
    // kill (or during a distributed campaign's discovery) must stay
    // exhausted, or the resumed walk fires faults the uninterrupted walk
    // would not. Monotone, so a worker reusing one plan across shards
    // never loses fires it accumulated itself.
    if (options_.fault && !cp.fault_fires.empty()) {
      options_.fault->seed_fires(cp.fault_fires);
    }
    result.resumed = true;
  } else {
    // Initial discovery execution: SELF_RUN unless the caller pinned the
    // root interleaving through options_.initial_schedule.
    const SingleRun& first = take_with_retry(options_.initial_schedule, 1);
    result.interleavings = 1;
    result.first_report = first.report;
    result.wildcard_recv_epochs = first.trace.wildcard_recv_epochs;
    result.wildcard_probe_epochs = first.trace.wildcard_probe_epochs;
    result.potential_matches_first_run = first.trace.potential_matches;
    result.first_run_vtime_us = first.report.vtime_us;
    result.total_vtime_us += first.report.vtime_us;
    result.divergences += first.divergences;
    if (first.report.cancelled) {
      aborted_discovery = true;
    } else {
      if (first.report.timed_out) ++result.timeouts;
      collect_alerts(first.trace, alert_keys, result);
      record_bug_if_any(first.report, options_.initial_schedule, first.trace,
                        1, result);
      if (observer) {
        observer(first.trace, first.report, options_.initial_schedule);
      }
      extend_stack(first.trace, /*flip_pos=*/-1, result);
      flush_checkpoint();
    }
  }

  const bool stop_now = aborted_discovery || options_.discovery_only;
  while (!stop_now) {
    if (cancel->requested()) {
      // The cancel landed between runs (or a cancelled run already broke
      // out below); classify it before walking on.
      if (wall_budget_fired.load(std::memory_order_acquire)) {
        result.time_budget_exhausted = true;
      } else {
        result.interrupted = true;
      }
      break;
    }
    if (result.interleavings >= options_.max_interleavings) {
      result.interleaving_budget_exhausted =
          std::any_of(stack_.begin(), stack_.end(),
                      [](const DfsFrame& f) { return !f.untried.empty(); });
      break;
    }
    if (elapsed() > options_.max_wall_seconds) {
      // Backstop for the watchdog (e.g. it lost the race to arm).
      result.time_budget_exhausted = true;
      break;
    }

    // Serve pending work-steal requests before committing to the next
    // flip: each poll consumes one request; the carve mutates the stack
    // on this thread, so the thief and the victim can never race.
    if (options_.steal_poll && options_.on_steal) {
      while (options_.steal_poll()) {
        std::shared_ptr<Checkpoint> stolen = carve_steal(stack_, fingerprint);
        // The thief may run in another process: ship the current flaky
        // accounting with the shard, like every other checkpoint.
        if (stolen && options_.fault) {
          stolen->fault_fires = options_.fault->fire_counts();
        }
        options_.on_steal(std::move(stolen));
      }
    }

    // Deepest frame with an untried alternative.
    int flip = -1;
    for (int i = static_cast<int>(stack_.size()) - 1; i >= 0; --i) {
      if (!stack_[static_cast<std::size_t>(i)].untried.empty()) {
        flip = i;
        break;
      }
    }
    if (flip < 0) break;  // all epoch decisions exhausted

    // Frames deeper than the flip are fully explored (the flip is the
    // deepest frame with untried work). Under POR sleep they are
    // harvested before the truncation discards them: the next
    // extend_stack at this flip inherits their covered sources into the
    // sibling subtree's sleep sets where the decisions commute.
    if (options_.por == PorMode::kSleep) {
      for (std::size_t i = static_cast<std::size_t>(flip) + 1;
           i < stack_.size(); ++i) {
        pending_sleep_.push_back(std::move(stack_[i]));
      }
    }
    stack_.resize(static_cast<std::size_t>(flip) + 1);
    DfsFrame& frame = stack_[static_cast<std::size_t>(flip)];
    frame.taken_src = frame.untried.back();
    frame.untried.pop_back();
    DAMPI_TEVENT(obs::EventKind::kDecisionPop, obs::Phase::kInstant,
                 frame.key.rank,
                 static_cast<std::int32_t>(frame.key.nd_index),
                 frame.taken_src);

    schedule_for(flip, frame.taken_src, &schedule_);
    const Schedule& schedule = schedule_;

    const SingleRun& outcome =
        take_with_retry(schedule, result.interleavings + 1);
    if (outcome.report.cancelled) {
      // The run was torn down, not judged: put the alternative back so a
      // resumed walk re-executes it, and do not count the interleaving —
      // this is what makes kill/resume produce the same run sequence as
      // an uninterrupted walk.
      DfsFrame& f = stack_[static_cast<std::size_t>(flip)];
      f.untried.push_back(f.taken_src);
      if (wall_budget_fired.load(std::memory_order_acquire)) {
        result.time_budget_exhausted = true;
      } else {
        result.interrupted = true;
      }
      break;
    }
    ++result.interleavings;
    result.total_vtime_us += outcome.report.vtime_us;
    result.divergences += outcome.divergences;
    if (outcome.report.timed_out) ++result.timeouts;
    if (!outcome.report.completed && !outcome.report.deadlocked) {
      // Still failing after every retry: the subtree below this root is
      // quarantined — its bug (if any) is recorded, nothing under it is
      // extended, and the walk degrades gracefully instead of aborting.
      ++result.quarantined;
      DAMPI_TEVENT(obs::EventKind::kQuarantine, obs::Phase::kInstant, 0, 0, 0,
                   static_cast<std::int32_t>(result.interleavings));
    }
    collect_alerts(outcome.trace, alert_keys, result);
    record_bug_if_any(outcome.report, schedule, outcome.trace,
                      result.interleavings, result);
    if (observer) observer(outcome.trace, outcome.report, schedule);

    // Only completed runs contribute new decision points; a failed replay
    // is reported, not extended.
    if (outcome.report.completed) {
      extend_stack(outcome.trace, flip, result);
    }
    if (options_.checkpoint_interval > 0 &&
        result.interleavings % options_.checkpoint_interval == 0) {
      flush_checkpoint();
    }
  }

  if (aborted_discovery) {
    // Discovery itself was cancelled: report the partial campaign but do
    // not journal it — there is no judged frontier to resume from.
    if (wall_budget_fired.load(std::memory_order_acquire)) {
      result.time_budget_exhausted = true;
    } else {
      result.interrupted = true;
    }
  } else {
    // Final flush at every walk exit (completion, budget, cancellation)
    // so --resume always sees the newest frontier.
    flush_checkpoint();
  }

  if (options_.export_frontier || options_.discovery_only) {
    result.frontier = stack_;
  }
  stop_watchdog();
  result.total_wall_seconds = elapsed();
  return result;
}

}  // namespace dampi::core
