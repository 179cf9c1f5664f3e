#include "core/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <unordered_set>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/por.hpp"
#include "mpism/fault.hpp"
#include "obs/metrics.hpp"
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

/// The bug a judged run shows, if any. External cancellation is an
/// interruption of the campaign, not a property of the program: the run
/// is torn down, never judged. A watchdog expiry (kHang) means the
/// interleaving wedged (livelock, unbounded spin, pathological slowness)
/// instead of deadlocking.
std::optional<BugRecord::Kind> bug_kind(const mpism::RunReport& report) {
  if (report.cancelled) return std::nullopt;
  if (report.deadlocked) return BugRecord::Kind::kDeadlock;
  if (!report.errors.empty()) return BugRecord::Kind::kError;
  if (report.timed_out()) return BugRecord::Kind::kHang;
  return std::nullopt;
}

/// A run whose failure may heal on a replay (an injected flaky fault, a
/// wall deadline hit under host load, a program error): worth
/// re-executing. Deadlocks are verdicts — deterministic by construction
/// — and cancellation means the campaign itself is being torn down.
bool failed_retryably(const mpism::RunReport& report) {
  return !report.deadlocked && !report.cancelled &&
         (report.timed_out() || !report.errors.empty());
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

Walk::Walk(ExplorerOptions options, RunObserver observer, Clock clock,
           BugHook on_bug)
    : options_(std::move(options)),
      observer_(std::move(observer)),
      clock_(clock),
      on_bug_(std::move(on_bug)),
      fingerprint_(options_fingerprint(options_)),
      t0_(std::chrono::steady_clock::now()) {
  if (options_.resume_from) {
    // Continue a journalled walk: restore the frontier and accumulated
    // verdicts, skip discovery entirely (only the original walk executed
    // the SELF_RUN, so first-run stats stay zero).
    const Checkpoint& cp = *options_.resume_from;
    stack_ = cp.frames;
    pending_sleep_ = cp.pending_sleep;
    restore_counters(cp, &result_);
    // Alerts are re-admitted through the walk's dedup set, which the
    // runs below keep extending.
    result_.unsafe_alerts.clear();
    for (const std::string& alert : cp.unsafe_alerts) {
      if (alert_keys_.insert(alert).second) {
        result_.unsafe_alerts.push_back(alert);
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
    result_.resumed = true;
  } else {
    // Initial discovery execution: SELF_RUN unless the caller pinned the
    // root interleaving through options_.initial_schedule.
    schedule_ = options_.initial_schedule;
    pending_ = true;
  }
}

double Walk::elapsed() const {
  if (clock_ == Clock::kCharged) return charged_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

bool Walk::cancelled() const {
  return options_.cancel && options_.cancel->requested();
}

std::chrono::steady_clock::time_point Walk::deadline() {
  // The global wall budget is a deadline every replay is armed with, so
  // even an in-flight run ends (cancelled) once it passes instead of
  // the budget only being noticed between runs.
  using SteadyClock = std::chrono::steady_clock;
  if (options_.max_wall_seconds >= 1e9) return {};
  const auto after = [](SteadyClock::time_point from, double seconds) {
    return from + std::chrono::duration_cast<SteadyClock::duration>(
                      std::chrono::duration<double>(seconds));
  };
  if (clock_ == Clock::kWall) return after(t0_, options_.max_wall_seconds);
  deadline_ =
      after(SteadyClock::now(), options_.max_wall_seconds - charged_);
  return deadline_;
}

void Walk::mark_stopped() {
  if (options_.max_wall_seconds < 1e9 &&
      elapsed() >= options_.max_wall_seconds) {
    result_.time_budget_exhausted = true;
  } else {
    result_.interrupted = true;
  }
}

// Crash-safe frontier journal (no-op without a checkpoint path).
void Walk::flush_checkpoint() {
  if (options_.checkpoint_path.empty()) return;
  Checkpoint cp;
  cp.fingerprint = fingerprint_;
  store_counters(result_, &cp);
  cp.frames = stack_;
  cp.pending_sleep = pending_sleep_;
  if (options_.fault) cp.fault_fires = options_.fault->fire_counts();
  DAMPI_TEVENT(obs::EventKind::kCheckpoint, obs::Phase::kBegin,
               static_cast<std::int32_t>(stack_.size()), 0, 0,
               static_cast<std::int32_t>(result_.interleavings));
  const bool ok = save_checkpoint(cp, options_.checkpoint_path);
  DAMPI_TEVENT(obs::EventKind::kCheckpoint, obs::Phase::kEnd,
               static_cast<std::int32_t>(stack_.size()), 0, 0,
               static_cast<std::int32_t>(result_.interleavings));
  if (ok) {
    ++result_.checkpoint_writes;
  } else {
    DAMPI_LOG(kWarn) << "checkpoint write failed: "
                     << options_.checkpoint_path;
  }
}

void Walk::record_bug(const mpism::RunReport& report,
                      const Schedule& schedule, const RunTrace& trace) {
  const std::optional<BugRecord::Kind> kind = bug_kind(report);
  if (!kind.has_value()) return;
  if (on_bug_) {
    on_bug_(*kind, report);
    return;
  }
  BugRecord bug;
  bug.kind = *kind;
  bug.interleaving = result_.interleavings;
  switch (*kind) {
    case BugRecord::Kind::kDeadlock:
      bug.deadlock_detail = report.deadlock_detail;
      break;
    case BugRecord::Kind::kError:
      bug.errors = report.errors;
      break;
    case BugRecord::Kind::kHang:
      bug.deadlock_detail = report.stop_reason;
      break;
  }
  // Even a hung run's partial trace pins every match it made before it
  // was stopped, so the schedule reproduces the bug deterministically.
  bug.schedule = reproducer_schedule(schedule, trace);
  result_.bugs.push_back(std::move(bug));
}

const Schedule* Walk::next() {
  if (done_) return nullptr;
  if (pending_) return &schedule_;
  if (aborted_discovery_ || options_.discovery_only) {
    done_ = true;
    return nullptr;
  }
  if (cancelled()) {
    result_.interrupted = true;
    done_ = true;
    return nullptr;
  }
  if (result_.interleavings >= options_.max_interleavings) {
    result_.interleaving_budget_exhausted =
        std::any_of(stack_.begin(), stack_.end(),
                    [](const DfsFrame& f) { return !f.untried.empty(); });
    done_ = true;
    return nullptr;
  }
  if (elapsed() > options_.max_wall_seconds) {
    result_.time_budget_exhausted = true;
    done_ = true;
    return nullptr;
  }

  // Serve pending work-steal requests before committing to the next
  // flip: each poll consumes one request; the carve mutates the stack
  // on this thread, so the thief and the victim can never race.
  while (options_.steal_poll && options_.steal_poll()) {
    std::shared_ptr<Checkpoint> stolen = carve_steal(stack_, fingerprint_);
    // The thief may run in another process: ship the current flaky
    // accounting with the shard, like every other checkpoint.
    if (stolen && options_.fault) {
      stolen->fault_fires = options_.fault->fire_counts();
    }
    options_.on_steal(std::move(stolen));
  }

  // Deepest frame with an untried alternative.
  int flip = -1;
  for (int i = static_cast<int>(stack_.size()) - 1; i >= 0; --i) {
    if (!stack_[static_cast<std::size_t>(i)].untried.empty()) {
      flip = i;
      break;
    }
  }
  if (flip < 0) {  // all epoch decisions exhausted
    done_ = true;
    return nullptr;
  }

  // Frames deeper than the flip are fully explored (the flip is the
  // deepest frame with untried work). Under POR sleep they are
  // harvested before the truncation discards them: the next
  // extend_stack at this flip inherits their covered sources into the
  // sibling subtree's sleep sets where the decisions commute.
  if (options_.por == PorMode::kSleep) {
    for (std::size_t i = static_cast<std::size_t>(flip) + 1; i < stack_.size();
         ++i) {
      pending_sleep_.push_back(std::move(stack_[i]));
    }
  }
  stack_.resize(static_cast<std::size_t>(flip) + 1);
  DfsFrame& frame = stack_[static_cast<std::size_t>(flip)];
  frame.taken_src = frame.untried.back();
  frame.untried.pop_back();
  DAMPI_TEVENT(obs::EventKind::kDecisionPop, obs::Phase::kInstant,
               frame.key.rank, static_cast<std::int32_t>(frame.key.nd_index),
               frame.taken_src);

  schedule_for(flip, frame.taken_src, &schedule_);
  flip_ = flip;
  pending_ = true;
  return &schedule_;
}

bool Walk::take(const SingleRun& run, double wall_seconds) {
  DAMPI_CHECK_MSG(pending_, "Walk::take without a pending schedule");
  if (clock_ == Clock::kCharged && run.report.cancelled && !cancelled()) {
    if (deadline_ == std::chrono::steady_clock::time_point{} ||
        std::chrono::steady_clock::now() < deadline_) {
      return false;  // another walk's deadline ended the shared replay
    }
    // This walk's own deadline ended it: its budget is spent.
    charged_ = std::max(charged_ + wall_seconds, options_.max_wall_seconds);
  } else {
    charged_ += wall_seconds;
  }
  const std::uint64_t interleaving = index();
  if (options_.run_stats) {
    RunStats rs;
    rs.interleaving = interleaving;
    rs.completed = run.report.completed;
    rs.wall_seconds = wall_seconds;
    rs.vtime_us = run.report.vtime_us;
    options_.run_stats(rs);
  }

  // Retry: a retryably-failed run (an error or a watchdog expiry; an
  // injected flaky fault heals this way) is re-executed up to
  // max_retries times, and the final outcome, whatever it is, is the one
  // judged. A replay re-runs the same schedule, so it fails the same way
  // unless the failure came from outside the run: only the run's own
  // wall deadline, which host load can exhaust, is retried after a
  // backoff (1 ms, doubling, capped at 1 s); every other failure is
  // retried at once.
  static obs::Counter& retries_metric =
      obs::Registry::instance().counter("explorer.retries");
  static obs::Counter& backoffs_metric =
      obs::Registry::instance().counter("explorer.retry_backoffs");
  if (failed_retryably(run.report) && attempt_ < options_.max_retries &&
      !cancelled()) {
    ++attempt_;
    ++result_.retries;
    retries_metric.add(1);
    DAMPI_TEVENT(obs::EventKind::kRetry, obs::Phase::kInstant, attempt_, 0, 0,
                 static_cast<std::int32_t>(interleaving));
    if (run.report.expired == mpism::RunBudget::kWallDeadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(1 << std::min(backoffs_, 10), 1000)));
      ++backoffs_;
      backoffs_metric.add(1);
    }
    return true;  // the same schedule again
  }
  pending_ = false;
  attempt_ = 0;
  backoffs_ = 0;
  if (flip_ < 0) {
    judge_discovery(run);
  } else {
    judge_flip(run);
  }
  return true;
}

void Walk::judge_discovery(const SingleRun& first) {
  result_.interleavings = 1;
  result_.first_report = first.report;
  result_.wildcard_recv_epochs = first.trace.wildcard_recv_epochs;
  result_.wildcard_probe_epochs = first.trace.wildcard_probe_epochs;
  result_.potential_matches_first_run = first.trace.potential_matches;
  result_.first_run_vtime_us = first.report.vtime_us;
  result_.total_vtime_us += first.report.vtime_us;
  result_.divergences += first.divergences;
  if (first.report.cancelled) {
    // Discovery itself was cancelled: the campaign is reported partial
    // but not journalled — there is no judged frontier to resume from.
    aborted_discovery_ = true;
    done_ = true;
    return;
  }
  if (first.report.timed_out()) ++result_.timeouts;
  collect_alerts(first.trace, alert_keys_, result_);
  record_bug(first.report, options_.initial_schedule, first.trace);
  if (observer_) observer_(first.trace, first.report, options_.initial_schedule);
  extend_stack(first.trace, /*flip_pos=*/-1);
  flush_checkpoint();
}

void Walk::judge_flip(const SingleRun& outcome) {
  if (outcome.report.cancelled) {
    // The run was torn down, not judged: put the alternative back so a
    // resumed walk re-executes it, and do not count the interleaving —
    // this is what makes kill/resume produce the same run sequence as
    // an uninterrupted walk.
    DfsFrame& f = stack_[static_cast<std::size_t>(flip_)];
    f.untried.push_back(f.taken_src);
    mark_stopped();
    done_ = true;
    return;
  }
  ++result_.interleavings;
  result_.total_vtime_us += outcome.report.vtime_us;
  result_.divergences += outcome.divergences;
  if (outcome.report.timed_out()) ++result_.timeouts;
  if (!outcome.report.completed && !outcome.report.deadlocked) {
    // Still failing after every retry: the subtree below this root is
    // quarantined — its bug (if any) is recorded, nothing under it is
    // extended, and the walk degrades gracefully instead of aborting.
    ++result_.quarantined;
    DAMPI_TEVENT(obs::EventKind::kQuarantine, obs::Phase::kInstant, 0, 0, 0,
                 static_cast<std::int32_t>(result_.interleavings));
  }
  collect_alerts(outcome.trace, alert_keys_, result_);
  record_bug(outcome.report, schedule_, outcome.trace);
  if (observer_) observer_(outcome.trace, outcome.report, schedule_);

  // Only completed runs contribute new decision points; a failed replay
  // is reported, not extended.
  if (outcome.report.completed) extend_stack(outcome.trace, flip_);
  if (options_.checkpoint_interval > 0 &&
      result_.interleavings % options_.checkpoint_interval == 0) {
    flush_checkpoint();
  }
}

ExploreResult Walk::finish() {
  if (aborted_discovery_) {
    mark_stopped();
  } else {
    // Final flush at every walk exit (completion, budget, cancellation)
    // so --resume always sees the newest frontier.
    flush_checkpoint();
  }
  if (options_.export_frontier || options_.discovery_only) {
    result_.frontier = stack_;
  }
  result_.total_wall_seconds = elapsed();
  return std::move(result_);
}

Explorer::Explorer(ExplorerOptions options) : options_(std::move(options)) {}

ExploreResult Explorer::explore(const mpism::ProgramFn& program,
                                const RunObserver& observer) {
  using SteadyClock = std::chrono::steady_clock;
  Walk walk(options_, observer);
  // Every replay of the walk runs in this one warm context, into `run`,
  // whose storage the next replay reuses.
  ReplayContext context(options_);
  SingleRun run;
  DAMPI_TRACE_THREAD_LANE("explore");
  while (const Schedule* schedule = walk.next()) {
    const std::uint64_t index = walk.index();
    DAMPI_TEVENT(obs::EventKind::kRun, obs::Phase::kBegin, 0, 0, 0, index);
    const SteadyClock::time_point start = SteadyClock::now();
    context.run(*schedule, program, &run, walk.deadline());
    const double wall =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    DAMPI_TEVENT(obs::EventKind::kRun, obs::Phase::kEnd, 0, 0, 0, index);
    walk.take(run, wall);
  }
  return walk.finish();
}

void Walk::extend_stack(const RunTrace& trace, int flip_pos) {
  ExploreResult& result = result_;
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

void Walk::schedule_for(int frame_pos, mpism::Rank alt,
                        Schedule* out) const {
  out->forced.clear();
  for (int j = 0; j < frame_pos; ++j) {
    const DfsFrame& f = stack_[static_cast<std::size_t>(j)];
    out->forced[f.key] = f.taken_src;
  }
  out->forced[stack_[static_cast<std::size_t>(frame_pos)].key] = alt;
}

}  // namespace dampi::core
