#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <utility>

#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "core/checkpoint.hpp"
#include "dist/pool.hpp"
#include "dist/worker.hpp"
#include "mpism/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/journal.hpp"

namespace dampi::sweep {

namespace {

/// Dedup key over the coordinate a point occupies, ignoring its
/// parameter (delay length, flaky cap): two delay plans at the same
/// (rank, op) probe the same cell of the matrix.
std::string point_key(const mpism::FaultPoint& point) {
  return strfmt("%d@%d:%llu", static_cast<int>(point.kind), point.rank,
                static_cast<unsigned long long>(point.op_index));
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The per-campaign verifier configuration: the base options with the
/// plan installed, sweep budgets applied, and every cross-campaign
/// facility (checkpoints, distributed hooks) stripped — campaigns must
/// be independent and deterministic so the report is a pure function of
/// the sweep inputs.
core::ExplorerOptions campaign_options(
    const SweepOptions& sweep, std::shared_ptr<mpism::FaultPlan> plan) {
  core::ExplorerOptions opts = sweep.explorer;
  opts.fault = std::move(plan);
  opts.max_interleavings = sweep.plan_max_interleavings;
  opts.max_wall_seconds = sweep.plan_wall_seconds;
  if (opts.max_run_ops == 0) opts.max_run_ops = kSweepMaxRunOps;
  opts.cancel = sweep.cancel;
  opts.checkpoint_path.clear();
  opts.resume_from.reset();
  opts.discovery_only = false;
  opts.export_frontier = false;
  opts.on_escape = nullptr;
  opts.on_steal = nullptr;
  opts.run_stats = nullptr;
  // A flaky point is the transient fault the retry path exists for:
  // give every campaign enough retries to burn through the cap, so the
  // sweep can observe masking instead of quarantining the subtree. A
  // count-only plan fires nothing and keeps the base retries.
  if (!opts.fault->count_only()) {
    for (const mpism::FaultPoint& point : opts.fault->points()) {
      opts.max_retries =
          std::max(opts.max_retries,
                   static_cast<int>(mpism::fault_effect(point).max_fires));
    }
  }
  return opts;
}

/// How a plan's record is had without running its own campaign, under
/// base options that stack no extra layers (the ISP layer decides on
/// virtual time) on the coop scheduler (whose replay of a schedule
/// repeats its run exactly, which both need). Either plan is a lane of
/// derive_plans, which feeds it fault-free replays shared with the other
/// lanes:
///  - derived: a single abort or error point, each replay cut at it;
///  - observed: a single delay or flaky point, each replay whole.
enum class Shortcut { kNone, kObserved, kDerived };

/// A delay or flaky point: one whose record is read off the fault-free
/// walk.
bool observable(const mpism::FaultPoint& point) {
  return point.kind == mpism::FaultPoint::Kind::kDelay ||
         point.kind == mpism::FaultPoint::Kind::kFlaky;
}

/// How the record of `spec` can be had; `*point` is its first point
/// (untouched when the spec does not parse).
Shortcut shortcut_for(const SweepOptions& options, const std::string& spec,
                      mpism::FaultPoint* point) {
  std::string error;
  const auto plan = mpism::parse_fault_plan(spec, &error);
  if (!plan) return Shortcut::kNone;
  *point = plan->points().front();
  if (plan->points().size() != 1 || options.explorer.extra_layers_per_run ||
      options.explorer.sched.kind != mpism::SchedulerKind::kCoop) {
    return Shortcut::kNone;
  }
  return observable(*point) ? Shortcut::kObserved : Shortcut::kDerived;
}

/// What a plan does, and where: each point's (rank, op) and effect. A
/// campaign depends on its plan through this alone (campaign_options and
/// FaultLayer read effects, not kinds), so plans with equal keys — an
/// abort/error pair — give equal records. A spec that does not parse
/// keys on its text and shares with nothing.
std::string effect_key(const std::string& spec) {
  std::string error;
  const auto plan = mpism::parse_fault_plan(spec, &error);
  if (!plan) return "spec " + spec;
  std::string key;
  for (const mpism::FaultPoint& point : plan->points()) {
    const mpism::FaultEffect effect = mpism::fault_effect(point);
    key += strfmt("%d@%d:%llu:%a:%llu,", static_cast<int>(effect.action),
                  point.rank, static_cast<unsigned long long>(point.op_index),
                  effect.delay_us,
                  static_cast<unsigned long long>(effect.max_fires));
  }
  return key;
}

/// The plans grouped by effect_key, each group's indices in enumeration
/// order and groups in order of their first member.
std::vector<std::vector<std::size_t>> effect_groups(
    const std::vector<std::string>& specs) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::string, std::size_t> by_key;
  for (std::size_t index = 0; index < specs.size(); ++index) {
    const auto [it, fresh] = by_key.emplace(effect_key(specs[index]),
                                            groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(index);
  }
  return groups;
}

PlanRecord sweep_error(std::uint64_t index, const std::string& spec,
                       std::string why) {
  PlanRecord record;
  record.index = index;
  record.spec = spec;
  record.verdict = Verdict::kSweepError;
  record.latent_error = std::move(why);
  return record;
}

/// What a plan's record keeps of its campaign's bugs.
struct BugTally {
  std::uint64_t bugs = 0;
  bool deadlocked = false;
  bool hung = false;
  bool errored = false;
  /// The first error, over the bugs in order, that is not injected: a
  /// latent program bug the injection exposed.
  std::string latent_error;

  void add(core::BugRecord::Kind kind,
           const std::vector<mpism::ErrorInfo>& errors) {
    ++bugs;
    switch (kind) {
      case core::BugRecord::Kind::kDeadlock:
        deadlocked = true;
        break;
      case core::BugRecord::Kind::kHang:
        hung = true;
        break;
      case core::BugRecord::Kind::kError:
        errored = true;
        for (const mpism::ErrorInfo& err : errors) {
          if (latent_error.empty() &&
              err.message.find(mpism::kInjectedMarker) == std::string::npos) {
            latent_error = err.message;
          }
        }
        break;
    }
  }
};

PlanRecord classify(std::uint64_t index, const std::string& spec,
                    const core::ExploreResult& result, const BugTally& tally,
                    std::uint64_t fires) {
  PlanRecord record;
  record.index = index;
  record.spec = spec;
  record.interleavings = result.interleavings;
  record.fires = fires;
  record.bugs = tally.bugs;
  record.partial =
      result.interleaving_budget_exhausted || result.time_budget_exhausted;
  record.latent_error = tally.latent_error;
  if (tally.deadlocked) {
    record.verdict = Verdict::kDeadlock;
  } else if (tally.hung) {
    record.verdict = Verdict::kHang;
  } else if (tally.errored) {
    record.verdict = Verdict::kErrorPropagated;
  } else if (fires > 0) {
    record.verdict = Verdict::kMasked;
  } else {
    record.verdict = Verdict::kClean;
  }
  return record;
}

/// Takes each record a batch finishes, as it finishes.
using RecordSink = std::function<void(PlanRecord)>;

/// One plan's bounded campaign: its record, or nullopt when a cancel
/// interrupted it (no verdict; never journalled, so a resume re-runs the
/// plan from scratch — the kill/resume exactness contract). `poll` runs
/// between the campaign's replays.
std::optional<PlanRecord> run_plan(const SweepOptions& options,
                                   std::uint64_t index, const std::string& spec,
                                   const mpism::ProgramFn& program,
                                   std::function<bool()> poll) {
  std::string error;
  const auto plan = mpism::parse_fault_plan(spec, &error);
  if (plan) {
    core::ExplorerOptions opts = campaign_options(options, plan);
    opts.steal_poll = std::move(poll);
    try {
      const core::ExploreResult outcome =
          core::Explorer(std::move(opts)).explore(program);
      if (outcome.interrupted) return std::nullopt;
      return classify_campaign(index, spec, outcome, plan->total_fires());
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  // Enumeration emits canonical specs, and the explorer throws only on
  // an internal error: either is a coverage hole, not a crash of the
  // sweep.
  return sweep_error(index, spec, error);
}

/// The records of the plans `plans` with a shortcut, `points` their
/// points, each the record its own campaign gives, from fault-free
/// replays their walks share. Each derived plan is a lane with a Walk of
/// its own: its campaign replays the fault-free run of each of its
/// schedules up to its point, where the run stops, so it takes, for each
/// schedule it asks for, the shared replay of that schedule cut at its
/// point (core::cut_view) — the replay itself when the point was not
/// reached. The observed plans are one more lane, last: the fault-free
/// walk, which takes each replay whole. Neither a delay nor a flaky
/// point changes a DAMPI walk. A delay only adds virtual time, which no
/// match policy or scheduler reads. A flaky point fires at most its cap
/// times per campaign, and its campaign grants at least that many
/// retries of a deterministic replay, so every judged run is the
/// fault-free run of its schedule. So each observed record takes the
/// lane's interleavings, bugs and partial flag. Each step replays the
/// schedule most lanes ask for next (ties to the earliest lane) once, to
/// its end, with every point installed count-only; each asker takes its
/// view, and is charged the replay's wall time against its plan budget
/// (a replay its walk did not take, ended by another walk's deadline, is
/// not charged; see core::Walk::take). A plan's fires are the runs its
/// lane took that reached its point, a flaky point's its whole cap once
/// reached at all (the first schedule that reaches it spends the cap on
/// retries); a derived plan's are also counted in the fault.fires
/// metric, as the firing layer of its own campaign would. A lane's
/// records go to `sink` as soon as its walk is over, so an interrupted
/// batch keeps the plans it finished. No record for a walk a cancel
/// interrupted; a sweep-error for every unfinished plan when a replay
/// throws.
void derive_plans(const SweepOptions& options,
                  const std::vector<dist::PlanTask>& plans,
                  const std::vector<mpism::FaultPoint>& points,
                  const mpism::ProgramFn& program,
                  const std::function<bool()>& poll, const RecordSink& sink) {
  using SteadyClock = std::chrono::steady_clock;
  static obs::Counter& fires_metric =
      obs::Registry::instance().counter("fault.fires");
  struct Lane {
    std::vector<std::size_t> plans;  ///< indices into `plans` and `points`
    bool cut = true;                 ///< derived: views cut at its point
    std::unique_ptr<core::Walk> walk;
    BugTally tally;
    std::vector<std::uint64_t> fires;  ///< per plan of the lane
    const core::Schedule* wants = nullptr;
    bool done = false;
  };
  std::vector<Lane> lanes;
  Lane observing;
  observing.cut = false;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (observable(points[i])) {
      observing.plans.push_back(i);
    } else {
      lanes.emplace_back().plans.assign(1, i);
    }
  }
  if (!observing.plans.empty()) lanes.push_back(std::move(observing));
  const std::size_t n = lanes.size();
  const auto finish = [&](Lane& lane) {
    lane.done = true;
    const core::ExploreResult result = lane.walk->finish();
    if (result.interrupted) return;
    for (std::size_t k = 0; k < lane.plans.size(); ++k) {
      const dist::PlanTask& plan = plans[lane.plans[k]];
      const std::uint64_t cap =
          mpism::fault_effect(points[lane.plans[k]]).max_fires;
      const std::uint64_t fires =
          cap > 0 && lane.fires[k] > 0 ? cap : lane.fires[k];
      sink(classify(plan.index, plan.spec, result, lane.tally, fires));
    }
  };
  std::optional<std::string> error;
  try {
    for (Lane& lane : lanes) {
      std::vector<mpism::FaultPoint> own;
      for (const std::size_t i : lane.plans) own.push_back(points[i]);
      lane.fires.assign(own.size(), 0);
      // A derived lane's walk is its own campaign's; the observing
      // lane's is the fault-free walk, its points only counted.
      lane.walk = std::make_unique<core::Walk>(
          campaign_options(options,
                           std::make_shared<mpism::FaultPlan>(
                               std::move(own), /*count_only=*/!lane.cut)),
          core::RunObserver{}, core::Walk::Clock::kCharged,
          [&lane](core::BugRecord::Kind kind, const mpism::RunReport& report) {
            lane.tally.add(kind, report.errors);
          });
    }
    const auto shared = std::make_shared<mpism::FaultPlan>(points,
                                                           /*count_only=*/true);
    core::ReplayContext context(campaign_options(options, shared));
    core::SingleRun run;
    core::SingleRun scratch;
    DAMPI_TRACE_THREAD_LANE("explore");
    std::uint64_t replays = 0;
    std::vector<std::size_t> askers;
    std::vector<std::size_t> group;
    std::vector<char> grouped(n);
    while (true) {
      if (poll) poll();
      for (Lane& lane : lanes) {
        if (lane.done) continue;
        lane.wants = lane.walk->next();
        if (lane.wants == nullptr) finish(lane);
      }
      // The largest set of lanes asking for one schedule; groups are
      // formed in lane order, so a tie goes to the earliest lane.
      askers.clear();
      std::fill(grouped.begin(), grouped.end(), 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (lanes[i].done || grouped[i] != 0) continue;
        group.assign(1, i);
        for (std::size_t j = i + 1; j < n; ++j) {
          if (!lanes[j].done && grouped[j] == 0 &&
              lanes[j].wants->forced == lanes[i].wants->forced) {
            grouped[j] = 1;
            group.push_back(j);
          }
        }
        if (group.size() > askers.size()) askers.swap(group);
      }
      if (askers.empty()) break;

      SteadyClock::time_point deadline{};
      for (const std::size_t i : askers) {
        const SteadyClock::time_point d = lanes[i].walk->deadline();
        if (d != SteadyClock::time_point{} &&
            (deadline == SteadyClock::time_point{} || d < deadline)) {
          deadline = d;
        }
      }
      shared->reset_reach();
      ++replays;
      DAMPI_TEVENT(obs::EventKind::kRun, obs::Phase::kBegin, 0, 0, 0, replays);
      const SteadyClock::time_point start = SteadyClock::now();
      context.run(*lanes[askers.front()].wants, program, &run, deadline);
      const double wall =
          std::chrono::duration<double>(SteadyClock::now() - start).count();
      DAMPI_TEVENT(obs::EventKind::kRun, obs::Phase::kEnd, 0, 0, 0, replays);
      for (const std::size_t i : askers) {
        Lane& lane = lanes[i];
        if (!lane.cut) {
          if (!lane.walk->take(run, wall)) continue;
          for (std::size_t k = 0; k < lane.plans.size(); ++k) {
            if (shared->reach(lane.plans[k]).call_seq != 0) ++lane.fires[k];
          }
          continue;
        }
        const std::size_t plan = lane.plans.front();
        const mpism::FaultPlan::Reach& reach = shared->reach(plan);
        core::RunCut cut;
        if (reach.call_seq != 0) {
          cut.call_seq = reach.call_seq;
          cut.error = mpism::injected_error(points[plan], reach.call);
          ++lane.fires.front();
          fires_metric.add(1);
        }
        lane.walk->take(core::cut_view(run, cut, &scratch), wall);
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (!error.has_value()) return;
  for (const Lane& lane : lanes) {
    if (lane.done) continue;
    for (const std::size_t i : lane.plans) {
      sink(sweep_error(plans[i].index, plans[i].spec, *error));
    }
  }
}

/// One batch of plans, the unit of work the serial loop runs in process
/// and a plan worker runs per PLAN frame: each plan's record goes to
/// `sink` as it finishes (none for a plan a cancel interrupted). The
/// plans with a shortcut are the lanes of one derive_plans loop; any
/// other plan runs its own campaign (run_plan). `poll` runs between
/// replays. Traced as one sweep.batch span: fault rank (-1 when the
/// plans' ranks differ), walks and replays.
void run_batch(const SweepOptions& options,
               const std::vector<dist::PlanTask>& plans,
               const mpism::ProgramFn& program,
               const std::function<bool()>& poll, const RecordSink& sink) {
  if (plans.empty()) return;
  std::vector<dist::PlanTask> laned;
  std::vector<mpism::FaultPoint> points;
  std::vector<dist::PlanTask> own;
  std::int32_t fault_rank = -1;
  // A derived or own plan is a walk of its own, the observed plans one.
  std::int32_t walks = 0;
  bool observed = false;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    mpism::FaultPoint point;
    const Shortcut kind = shortcut_for(options, plans[i].spec, &point);
    if (kind == Shortcut::kNone) {
      own.push_back(plans[i]);
    } else {
      laned.push_back(plans[i]);
      points.push_back(point);
    }
    if (kind != Shortcut::kObserved || !observed) ++walks;
    observed |= kind == Shortcut::kObserved;
    if (i == 0) fault_rank = point.rank;
    if (point.rank != fault_rank) fault_rank = -1;
  }
  static obs::Counter& runs_metric =
      obs::Registry::instance().counter("engine.runs");
  const std::uint64_t runs_before = runs_metric.value();
  DAMPI_TEVENT(obs::EventKind::kSweepBatch, obs::Phase::kBegin, fault_rank,
               walks);
  if (!laned.empty()) {
    derive_plans(options, laned, points, program, poll, sink);
  }
  for (const dist::PlanTask& plan : own) {
    if (auto record = run_plan(options, plan.index, plan.spec, program, poll)) {
      sink(std::move(*record));
    }
  }
  DAMPI_TEVENT(obs::EventKind::kSweepBatch, obs::Phase::kEnd, fault_rank,
               walks, 0, runs_metric.value() - runs_before);
}

}  // namespace

std::string sweep_fingerprint(const SweepOptions& options) {
  core::ExplorerOptions base = options.explorer;
  base.fault.reset();
  base.checkpoint_tag = options.program_name;
  std::string fp = core::options_fingerprint(base);
  fp += strfmt(
      " sweep budget=%llu seed=%llu kinds=%s delays=%d flakys=%d "
      "planil=%llu planops=%llu",
      static_cast<unsigned long long>(options.budget),
      static_cast<unsigned long long>(options.seed),
      sweep_kinds_spec(options.kinds).c_str(), options.delay_samples,
      options.flaky_samples,
      static_cast<unsigned long long>(options.plan_max_interleavings),
      static_cast<unsigned long long>(kSweepMaxRunOps));
  return fp;
}

std::vector<std::string> enumerate_plans(const OpInventory& inventory,
                                         const SweepOptions& options,
                                         std::uint64_t* planned) {
  // Only the first `budget` plans become specs; the rest are counted, so
  // a deep inventory (a hung baseline's million ops) costs no memory.
  std::vector<std::string> specs;
  std::uint64_t count = 0;
  const auto push = [&](const mpism::FaultPoint& point) {
    if (specs.size() < options.budget) {
      specs.push_back(mpism::fault_point_spec(point));
    }
    ++count;
  };

  // Exhaustive families first, op-major: shallow ops across all ranks
  // before deep ones, so a small budget still probes every rank's
  // early calls instead of spending itself on rank 0 alone.
  const std::uint64_t deepest = inventory.max_ops();
  for (std::uint64_t op = 1; op <= deepest; ++op) {
    for (std::size_t rank = 0; rank < inventory.ops.size(); ++rank) {
      if (inventory.ops[rank].size() < op) continue;
      mpism::FaultPoint point;
      point.rank = static_cast<mpism::Rank>(rank);
      point.op_index = op;
      if (options.kinds.abort_) {
        point.kind = mpism::FaultPoint::Kind::kAbort;
        push(point);
      }
      if (options.kinds.error_) {
        point.kind = mpism::FaultPoint::Kind::kError;
        push(point);
      }
    }
  }

  // Sampled perturbation families, drawn from the seeded generator in a
  // fixed order (delays before flakys; every draw happens whether or
  // not dedup keeps the point) so the enumeration is reproducible. A
  // draw indexes the inventory's coordinates rank-major.
  std::set<std::string> seen;
  const auto push_sampled = [&](const mpism::FaultPoint& point) {
    if (seen.insert(point_key(point)).second) push(point);
  };
  const std::uint64_t coords = inventory.total_ops();
  const auto draw = [&inventory](std::uint64_t coord,
                                  mpism::FaultPoint* point) {
    std::size_t rank = 0;
    while (coord >= inventory.ops[rank].size()) {
      coord -= inventory.ops[rank].size();
      ++rank;
    }
    point->rank = static_cast<mpism::Rank>(rank);
    point->op_index = coord + 1;
  };
  std::mt19937_64 rng(options.seed);
  static constexpr double kDelaysUs[] = {100.0, 1000.0, 10000.0};
  if (options.kinds.delay_ && coords > 0) {
    for (int i = 0; i < options.delay_samples; ++i) {
      mpism::FaultPoint point;
      point.kind = mpism::FaultPoint::Kind::kDelay;
      draw(rng() % coords, &point);
      point.delay_us = kDelaysUs[rng() % 3];
      push_sampled(point);
    }
  }
  if (options.kinds.flaky_ && coords > 0) {
    for (int i = 0; i < options.flaky_samples; ++i) {
      mpism::FaultPoint point;
      point.kind = mpism::FaultPoint::Kind::kFlaky;
      draw(rng() % coords, &point);
      point.max_fires = 1 + rng() % 3;
      push_sampled(point);
    }
  }

  if (planned != nullptr) *planned = count;
  return specs;
}

PlanRecord classify_campaign(std::uint64_t index, const std::string& spec,
                             const core::ExploreResult& result,
                             std::uint64_t fires) {
  BugTally tally;
  for (const core::BugRecord& bug : result.bugs) tally.add(bug.kind, bug.errors);
  return classify(index, spec, result, tally, fires);
}

SweepResult run_sweep(const SweepOptions& options,
                      const mpism::ProgramFn& program) {
  SweepResult result;
  if (options.explorer.fault) {
    result.error =
        "sweep: base options already carry a fault plan — the sweep owns "
        "injection (drop --fault)";
    return result;
  }
  if (options.resume && options.journal_path.empty()) {
    result.error = "sweep: --resume requires a sweep journal path";
    return result;
  }

  static obs::Counter& runs_metric =
      obs::Registry::instance().counter("engine.runs");
  const std::uint64_t runs_before = runs_metric.value();
  result.inventory = harvest_inventory(options.explorer, program);
  if (!result.inventory.error.empty()) {
    result.error = result.inventory.error;
    return result;
  }

  const std::vector<std::string> specs =
      enumerate_plans(result.inventory, options, &result.planned);
  result.truncated = result.planned - specs.size();
  const std::string fingerprint = sweep_fingerprint(options);

  // Completed-plan slots, filled by index so completion order can never
  // reorder the report.
  std::vector<std::optional<PlanRecord>> slots(specs.size());

  SweepJournal journal;
  journal.fingerprint = fingerprint;
  if (options.resume) {
    std::string journal_error;
    auto loaded = load_sweep_journal(options.journal_path, fingerprint,
                                     &journal_error);
    if (!loaded.has_value()) {
      result.error = "sweep journal: " + journal_error;
      return result;
    }
    journal = std::move(*loaded);
    for (const auto& [index, record] : journal.records) {
      if (index >= specs.size() || record.spec != specs[index]) {
        result.error = strfmt(
            "sweep journal: plan %llu does not match this sweep's "
            "enumeration (journal '%s')",
            static_cast<unsigned long long>(index), record.spec.c_str());
        return result;
      }
      slots[index] = record;
      ++result.resumed;
    }
  }

  // Plans share a record per effect: the first member of a group
  // without a record runs (its runner), the rest copy its record. A
  // group whose runner has a shortcut is a lane of a shared batch, whose
  // lanes share replays: in process there is one such batch; on workers
  // the derived groups of one fault rank are a batch, and so are the
  // observed groups, so the pool runs them side by side. Every other
  // group is a batch of its own. An observed record counts as shared,
  // since no campaign of its own ran.
  const std::vector<std::vector<std::size_t>> groups = effect_groups(specs);
  std::vector<std::vector<std::size_t>> batches;
  std::vector<std::size_t> batch_of(specs.size());
  std::vector<std::size_t> group_of(specs.size());
  std::vector<char> observed(groups.size());
  std::map<std::int64_t, std::size_t> batch_of_key;
  for (std::size_t group = 0; group < groups.size(); ++group) {
    mpism::FaultPoint point;
    const Shortcut kind =
        shortcut_for(options, specs[groups[group].front()], &point);
    observed[group] = kind == Shortcut::kObserved;
    std::size_t batch = batches.size();
    if (kind != Shortcut::kNone) {
      const std::int64_t key = options.workers <= 1 ? 0
                               : kind == Shortcut::kDerived ? point.rank
                                                            : -1;
      batch = batch_of_key.emplace(key, batches.size()).first->second;
    }
    if (batch == batches.size()) batches.emplace_back();
    batches[batch].push_back(group);
    for (const std::size_t index : groups[group]) {
      batch_of[index] = batch;
      group_of[index] = group;
    }
  }

  DAMPI_TRACE_THREAD_LANE("sweep");
  const auto cancelled = [&options] {
    return options.cancel && options.cancel->requested();
  };
  // Records a finished plan: its slot, the journal, the progress hook,
  // and `*counter` (executed or shared).
  const auto record = [&](PlanRecord plan, std::uint64_t* counter) {
    DAMPI_TEVENT(obs::EventKind::kSweepPlan, obs::Phase::kInstant,
                 static_cast<std::int32_t>(plan.index),
                 static_cast<std::int32_t>(plan.verdict), 0,
                 plan.interleavings);
    const PlanRecord& slot = slots[plan.index].emplace(std::move(plan));
    ++*counter;
    if (!options.journal_path.empty()) {
      journal.records[slot.index] = slot;
      save_sweep_journal(journal, options.journal_path);
    }
    if (options.on_plan_done) options.on_plan_done(slot);
  };
  // Settles a group as far as recorded members allow: once one holds a
  // campaign's verdict (a sweep-error is none), each member still
  // without a record records a copy of it. Returns the member that must
  // run, if any; nothing once the sweep is cancelled.
  const auto settle = [&](std::size_t group) -> std::optional<std::size_t> {
    const PlanRecord* source = nullptr;
    for (const std::size_t index : groups[group]) {
      if (slots[index].has_value() &&
          slots[index]->verdict != Verdict::kSweepError) {
        source = &*slots[index];
        break;
      }
    }
    for (const std::size_t index : groups[group]) {
      if (slots[index].has_value()) continue;
      if (cancelled()) return std::nullopt;
      if (source == nullptr) return index;
      PlanRecord copy = *source;
      copy.index = index;
      copy.spec = specs[index];
      record(std::move(copy), &result.shared);
    }
    return std::nullopt;
  };
  // The runners a batch still needs, in enumeration order, after
  // settling each of its groups.
  const auto runners = [&](std::size_t batch) {
    std::vector<dist::PlanTask> tasks;
    for (const std::size_t group : batches[batch]) {
      if (const auto index = settle(group)) {
        tasks.push_back({*index, specs[*index]});
      }
    }
    return tasks;
  };
  // Records a runner's record and settles its group with it.
  const auto record_runner = [&](PlanRecord plan) {
    const std::size_t group = group_of[plan.index];
    record(std::move(plan),
           observed[group] != 0 ? &result.shared : &result.executed);
    settle(group);
  };

  if (options.workers <= 1) {
    for (std::size_t batch = 0; batch < batches.size() && !cancelled();
         ++batch) {
      for (auto tasks = runners(batch); !tasks.empty() && !cancelled();
           tasks = runners(batch)) {
        run_batch(options, tasks, program, nullptr, [&](PlanRecord plan) {
          if (!cancelled()) record_runner(std::move(plan));
        });
      }
    }
  } else if (options.worker_argv.empty()) {
    result.error = "sweep: workers > 1 needs a worker argv";
    return result;
  } else {
    dist::WorkerPool pool(options.workers, options.worker_argv, fingerprint,
                          dist::kShutdownGraceSeconds);
    // One PLAN frame per batch at a time, listing its runners (the task
    // is named by the first); the next goes out once this one's answer
    // leaves a group unsettled (its runner a sweep-error).
    std::map<std::uint64_t, std::vector<dist::PlanTask>> in_flight;
    const auto push_next = [&](std::size_t batch) {
      std::vector<dist::PlanTask> tasks = runners(batch);
      if (tasks.empty()) return;
      const std::uint64_t id = tasks.front().index;
      pool.push({id, dist::MsgType::kPlan, dist::serialize_plan(tasks)});
      in_flight[id] = std::move(tasks);
    };
    for (std::size_t batch = 0; batch < batches.size(); ++batch) {
      push_next(batch);
    }
    const auto listed = [&](std::uint64_t id, std::uint64_t index) {
      for (const dist::PlanTask& task : in_flight[id]) {
        if (task.index == index) return true;
      }
      return false;
    };
    dist::WorkerPool::Hooks hooks;
    hooks.cancel_requested = cancelled;
    hooks.on_message = [&](dist::Worker& w, dist::WireMessage& msg) {
      // The answer holds a record per plan of the batch, but for those a
      // cancel interrupted, and the worker's metrics over the batch.
      std::string error = "not a plan answer";
      std::optional<dist::PlanResult> plan_result;
      std::optional<SweepJournal> answer;
      if (msg.type == dist::MsgType::kResult && w.task.has_value()) {
        plan_result = dist::parse_plan_result(msg.payload, &error);
      }
      if (plan_result.has_value()) {
        answer = parse_sweep_journal(plan_result->journal, fingerprint, &error);
      }
      if (answer.has_value()) {
        for (const auto& [index, plan] : answer->records) {
          if (!listed(w.task->id, index)) {
            answer.reset();
            error = strfmt("plan %llu is not in the batch",
                           static_cast<unsigned long long>(index));
            break;
          }
        }
      }
      if (!answer.has_value()) {
        pool.protocol_error(w, "bad plan answer: " + error);
        return;
      }
      const std::uint64_t id = w.task->id;
      const std::size_t batch = batch_of[id];
      pool.finish(w);
      in_flight.erase(id);
      obs::Registry::instance().merge_dump(plan_result->metrics_dump, "");
      // Answers landing after a cancel are dropped like the batches
      // still in flight: an interrupted sweep holds only the plans
      // finished before it.
      for (auto& [index, plan] : answer->records) {
        if (cancelled()) return;
        record_runner(std::move(plan));
      }
      if (!cancelled()) push_next(batch);
    };
    hooks.on_abandoned = [&](const dist::Task& task) {
      for (const dist::PlanTask& plan : in_flight[task.id]) {
        record_runner(sweep_error(
            plan.index, plan.spec,
            strfmt("its worker died %d times", task.deaths)));
      }
      in_flight.erase(task.id);
      push_next(batch_of[task.id]);
    };
    const std::string error = pool.run(hooks);
    result.requeued = pool.requeued();
    if (!error.empty()) {
      result.error = "sweep workers: " + error;
      return result;
    }
  }

  result.replays = runs_metric.value() - runs_before;
  result.interrupted = cancelled();
  for (std::optional<PlanRecord>& slot : slots) {
    if (slot.has_value()) result.records.push_back(std::move(*slot));
  }
  return result;
}

int run_sweep_worker(const std::string& socket_spec, int worker_id,
                     SweepOptions options, const mpism::ProgramFn& program) {
  const std::string fingerprint = sweep_fingerprint(options);
  const std::unique_ptr<dist::MessageChannel> channel =
      dist::join_pool(socket_spec, worker_id, fingerprint);
  if (!channel) return 3;
  DAMPI_TRACE_THREAD_LANE("sweep");
  // One cancel source for the worker's lifetime: a CANCEL ends the batch
  // in flight (read between its replays) and every batch after it.
  options.cancel = std::make_shared<mpism::CancelSource>();
  bool shutdown = false;
  const auto poll = [&] {
    dist::poll_coordinator(*channel, *options.cancel, &shutdown);
    return false;
  };
  while (auto msg = dist::next_task(*channel, *options.cancel, &shutdown)) {
    std::string error = "unexpected message type";
    const auto tasks = msg->type == dist::MsgType::kPlan
                           ? dist::parse_plan(msg->payload, &error)
                           : std::nullopt;
    if (!tasks.has_value()) {
      DAMPI_LOG(kError) << "worker " << worker_id << ": " << error;
      return 3;
    }
    SweepJournal answer;
    answer.fingerprint = fingerprint;
    run_batch(options, *tasks, program, poll, [&answer](PlanRecord plan) {
      answer.records[plan.index] = std::move(plan);
    });
    dist::PlanResult result;
    result.journal = serialize_sweep_journal(answer);
    result.metrics_dump = obs::Registry::instance().dump();
    obs::Registry::instance().reset();
    if (!channel->send(dist::MsgType::kResult,
                       dist::serialize_plan_result(result))) {
      break;
    }
  }
  return shutdown ? 0 : 3;
}

std::string format_sweep_report_json(const SweepOptions& options,
                                     const SweepResult& result) {
  std::string out = "{\n";
  out += strfmt("  \"program\": \"%s\",\n",
                json_escape(options.program_name).c_str());
  out += strfmt("  \"nprocs\": %d,\n", options.explorer.nprocs);
  out += strfmt("  \"budget\": %llu,\n",
                static_cast<unsigned long long>(options.budget));
  out += strfmt("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(options.seed));
  out += strfmt("  \"kinds\": \"%s\",\n", sweep_kinds_spec(options.kinds).c_str());
  out += strfmt("  \"planned\": %llu,\n",
                static_cast<unsigned long long>(result.planned));
  out += strfmt("  \"truncated\": %llu,\n",
                static_cast<unsigned long long>(result.truncated));
  out += strfmt(
      "  \"inventory\": {\"ranks\": %zu, \"total_ops\": %llu, \"per_rank\": [",
      result.inventory.ops.size(),
      static_cast<unsigned long long>(result.inventory.total_ops()));
  for (std::size_t rank = 0; rank < result.inventory.ops.size(); ++rank) {
    if (rank > 0) out += ", ";
    out += strfmt("%zu", result.inventory.ops[rank].size());
  }
  out += "]},\n";

  std::uint64_t counts[6] = {0, 0, 0, 0, 0, 0};
  for (const PlanRecord& record : result.records) {
    ++counts[static_cast<int>(record.verdict)];
  }
  out += "  \"verdicts\": {";
  for (int v = 0; v < 6; ++v) {
    if (v > 0) out += ", ";
    out += strfmt("\"%s\": %llu", verdict_name(static_cast<Verdict>(v)),
                  static_cast<unsigned long long>(counts[v]));
  }
  out += "},\n";

  out += "  \"plans\": [\n";
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const PlanRecord& record = result.records[i];
    out += strfmt(
        "    {\"index\": %llu, \"spec\": \"%s\", \"verdict\": \"%s\", "
        "\"interleavings\": %llu, \"fires\": %llu, \"bugs\": %llu, "
        "\"partial\": %s",
        static_cast<unsigned long long>(record.index),
        json_escape(record.spec).c_str(), verdict_name(record.verdict),
        static_cast<unsigned long long>(record.interleavings),
        static_cast<unsigned long long>(record.fires),
        static_cast<unsigned long long>(record.bugs),
        record.partial ? "true" : "false");
    if (!record.latent_error.empty()) {
      out += strfmt(", \"latent\": \"%s\"",
                    json_escape(record.latent_error).c_str());
    }
    out += "}";
    if (i + 1 < result.records.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string format_sweep_summary(const SweepOptions& options,
                                 const SweepResult& result) {
  std::string out;
  if (!result.error.empty()) {
    return strfmt("fault sweep failed: %s\n", result.error.c_str());
  }
  out += strfmt("fault sweep: %s (%d ranks, %llu injectable ops)\n",
                options.program_name.c_str(), options.explorer.nprocs,
                static_cast<unsigned long long>(result.inventory.total_ops()));
  out += strfmt(
      "  plans: %zu completed of %llu enumerated (%llu over budget); "
      "%llu executed, %llu shared, %llu resumed, %llu requeued; %llu "
      "replays%s\n",
      result.records.size(), static_cast<unsigned long long>(result.planned),
      static_cast<unsigned long long>(result.truncated),
      static_cast<unsigned long long>(result.executed),
      static_cast<unsigned long long>(result.shared),
      static_cast<unsigned long long>(result.resumed),
      static_cast<unsigned long long>(result.requeued),
      static_cast<unsigned long long>(result.replays),
      result.interrupted ? " — INTERRUPTED" : "");

  for (int v = 0; v < 6; ++v) {
    const Verdict verdict = static_cast<Verdict>(v);
    std::vector<const PlanRecord*> matching;
    for (const PlanRecord& record : result.records) {
      if (record.verdict == verdict) matching.push_back(&record);
    }
    if (matching.empty()) continue;
    out += strfmt("  %-16s %4zu:", verdict_name(verdict), matching.size());
    constexpr std::size_t kShown = 8;
    for (std::size_t i = 0; i < matching.size() && i < kShown; ++i) {
      out += ' ';
      out += matching[i]->spec;
    }
    if (matching.size() > kShown) {
      out += strfmt(" (+%zu more)", matching.size() - kShown);
    }
    out += '\n';
  }
  for (const PlanRecord& record : result.records) {
    if (!record.latent_error.empty() &&
        record.verdict != Verdict::kSweepError) {
      out += strfmt("  latent error under %s: %s\n", record.spec.c_str(),
                    record.latent_error.c_str());
    }
  }
  return out;
}

int sweep_exit_code(const SweepResult& result) {
  if (!result.error.empty()) return 3;
  bool bugs = false;
  bool partial = result.interrupted;
  for (const PlanRecord& record : result.records) {
    if (record.verdict == Verdict::kDeadlock ||
        record.verdict == Verdict::kHang ||
        (record.verdict == Verdict::kErrorPropagated &&
         !record.latent_error.empty())) {
      bugs = true;
    }
    if (record.partial || record.verdict == Verdict::kSweepError) {
      partial = true;
    }
  }
  if (bugs) return 1;
  if (partial) return 2;
  return 0;
}

}  // namespace dampi::sweep
