#include "sweep/sweep.hpp"

#include <algorithm>
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

/// Marker FaultLayer puts at the start of the errors it raises; any
/// error message without it is a latent program bug the injection
/// exposed.
constexpr const char* kInjectedMarker = "fault injected";

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

/// The point of `spec` when its record can be read off the fault-free
/// walk (observe_plans) instead of its own campaign: a single delay or
/// flaky point, under base options that stack no extra layers (the ISP
/// layer decides on virtual time) on the coop scheduler (whose replay
/// of a schedule repeats its run exactly, which a healing retry needs).
std::optional<mpism::FaultPoint> observable_point(const SweepOptions& options,
                                                  const std::string& spec) {
  if (options.explorer.extra_layers_per_run ||
      options.explorer.sched.kind != mpism::SchedulerKind::kCoop) {
    return std::nullopt;
  }
  std::string error;
  const auto plan = mpism::parse_fault_plan(spec, &error);
  if (!plan || plan->points().size() != 1) return std::nullopt;
  const mpism::FaultPoint& point = plan->points().front();
  if (point.kind != mpism::FaultPoint::Kind::kDelay &&
      point.kind != mpism::FaultPoint::Kind::kFlaky) {
    return std::nullopt;
  }
  return point;
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

/// The plans at `indices` (in enumeration order) grouped by effect_key,
/// each group's indices in enumeration order and groups in order of
/// their first member.
std::vector<std::vector<std::size_t>> effect_groups(
    const std::vector<std::string>& specs,
    const std::vector<std::size_t>& indices) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::string, std::size_t> by_key;
  for (const std::size_t index : indices) {
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

/// One plan's bounded campaign, the same code in the serial loop and in
/// a plan worker: its record, or nullopt when a cancel interrupted it (no
/// verdict; never journalled, so a resume re-runs the plan from scratch
/// — the kill/resume exactness contract). `poll` runs between the
/// campaign's replays.
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

/// The records of the observable plans at `indices`, `points` their
/// points, from one campaign: the fault-free walk with every point
/// installed count-only. Neither kind changes a DAMPI walk. A delay
/// only adds virtual time, which no match policy or scheduler reads. A
/// flaky point fires at most its cap times per campaign, and its
/// campaign grants at least that many retries of a deterministic
/// replay, so every judged run is the fault-free run of its schedule.
/// So each record takes the walk's interleavings, bugs and partial
/// flag, and its fires from its point's count: a delay fires each time
/// it is reached, and a flaky point reached at all spends its whole cap
/// on the first schedule that reaches it (each retry reaches it again).
/// nullopt when a cancel interrupted the walk; a sweep-error for every
/// plan when the explorer throws, as run_plan gives one plan.
std::optional<std::vector<PlanRecord>> observe_plans(
    const SweepOptions& options, const std::vector<std::string>& specs,
    const std::vector<std::size_t>& indices,
    std::vector<mpism::FaultPoint> points, const mpism::ProgramFn& program) {
  const auto plan = std::make_shared<mpism::FaultPlan>(std::move(points),
                                                       /*count_only=*/true);
  std::vector<PlanRecord> records;
  try {
    const core::ExploreResult outcome =
        core::Explorer(campaign_options(options, plan)).explore(program);
    if (outcome.interrupted) return std::nullopt;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::uint64_t cap =
          mpism::fault_effect(plan->points()[i]).max_fires;
      std::uint64_t fires = plan->fires(i);
      if (cap > 0 && fires > 0) fires = cap;
      records.push_back(
          classify_campaign(indices[i], specs[indices[i]], outcome, fires));
    }
  } catch (const std::exception& e) {
    records.clear();
    for (const std::size_t index : indices) {
      records.push_back(sweep_error(index, specs[index], e.what()));
    }
  }
  return records;
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
  PlanRecord record;
  record.index = index;
  record.spec = spec;
  record.interleavings = result.interleavings;
  record.fires = fires;
  record.bugs = result.bugs.size();
  record.partial =
      result.interleaving_budget_exhausted || result.time_budget_exhausted;

  bool deadlocked = false;
  bool hung = false;
  bool errored = false;
  for (const core::BugRecord& bug : result.bugs) {
    switch (bug.kind) {
      case core::BugRecord::Kind::kDeadlock:
        deadlocked = true;
        break;
      case core::BugRecord::Kind::kHang:
        hung = true;
        break;
      case core::BugRecord::Kind::kError:
        errored = true;
        for (const mpism::ErrorInfo& err : bug.errors) {
          if (record.latent_error.empty() &&
              err.message.find(kInjectedMarker) == std::string::npos) {
            record.latent_error = err.message;
          }
        }
        break;
    }
  }
  if (deadlocked) {
    record.verdict = Verdict::kDeadlock;
  } else if (hung) {
    record.verdict = Verdict::kHang;
  } else if (errored) {
    record.verdict = Verdict::kErrorPropagated;
  } else if (fires > 0) {
    record.verdict = Verdict::kMasked;
  } else {
    record.verdict = Verdict::kClean;
  }
  return record;
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

  // Observable plans without a record are observed together, after the
  // others. Those run one campaign per effect: the first member without
  // a record runs it, and the others record copies of its record.
  std::vector<std::size_t> observed;
  std::vector<mpism::FaultPoint> observed_points;
  std::vector<std::size_t> grouped;
  for (std::size_t index = 0; index < specs.size(); ++index) {
    if (const auto point = observable_point(options, specs[index])) {
      if (slots[index].has_value()) continue;
      observed.push_back(index);
      observed_points.push_back(*point);
    } else {
      grouped.push_back(index);
    }
  }
  const std::vector<std::vector<std::size_t>> groups =
      effect_groups(specs, grouped);
  std::vector<std::size_t> group_of(specs.size());
  for (std::size_t group = 0; group < groups.size(); ++group) {
    for (const std::size_t index : groups[group]) group_of[index] = group;
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
  // run its own campaign, if any; nothing once the sweep is cancelled.
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

  if (options.workers <= 1) {
    for (std::size_t group = 0; group < groups.size() && !cancelled();
         ++group) {
      while (const auto index = settle(group)) {
        auto plan = run_plan(options, *index, specs[*index], program, nullptr);
        if (!plan.has_value()) break;
        record(std::move(*plan), &result.executed);
      }
    }
  } else if (options.worker_argv.empty()) {
    result.error = "sweep: workers > 1 needs a worker argv";
    return result;
  } else {
    dist::WorkerPool pool(options.workers, options.worker_argv, fingerprint,
                          dist::kShutdownGraceSeconds);
    // One PLAN frame per group at a time: the next member's goes out
    // only if this one's answer settles nothing.
    const auto push_next = [&](std::size_t group) {
      if (const auto index = settle(group)) {
        pool.push({*index, dist::MsgType::kPlan,
                   dist::serialize_plan({*index, specs[*index]})});
      }
    };
    for (std::size_t group = 0; group < groups.size(); ++group) {
      push_next(group);
    }
    dist::WorkerPool::Hooks hooks;
    hooks.cancel_requested = cancelled;
    hooks.on_message = [&](dist::Worker& w, dist::WireMessage& msg) {
      // The answer holds the plan's record, or none when a cancel
      // interrupted its campaign, and the worker's metrics over the plan.
      std::string error = "not a plan answer";
      std::optional<dist::PlanResult> plan_result;
      std::optional<SweepJournal> answer;
      if (msg.type == dist::MsgType::kResult && w.task.has_value()) {
        plan_result = dist::parse_plan_result(msg.payload, &error);
      }
      if (plan_result.has_value()) {
        answer = parse_sweep_journal(plan_result->journal, fingerprint, &error);
      }
      if (!answer.has_value() ||
          answer->records.size() != answer->records.count(w.task->id)) {
        pool.protocol_error(w, "bad plan answer: " + error);
        return;
      }
      const std::size_t group = group_of[w.task->id];
      pool.finish(w);
      obs::Registry::instance().merge_dump(plan_result->metrics_dump, "");
      // Answers landing after a cancel are dropped like the plans still
      // in flight: an interrupted sweep holds only the plans finished
      // before it.
      if (answer->records.size() == 1 && !cancelled()) {
        record(std::move(answer->records.begin()->second), &result.executed);
        push_next(group);
      }
    };
    hooks.on_abandoned = [&](const dist::Task& task) {
      record(sweep_error(task.id, specs[task.id],
                         strfmt("its worker died %d times", task.deaths)),
             &result.executed);
      push_next(group_of[task.id]);
    };
    const std::string error = pool.run(hooks);
    result.requeued = pool.requeued();
    if (!error.empty()) {
      result.error = "sweep workers: " + error;
      return result;
    }
  }

  // The observing campaign runs here, in this process, at any worker
  // count; its records count as shared, since none ran a campaign.
  if (!observed.empty() && !cancelled()) {
    if (auto records = observe_plans(options, specs, observed,
                                     std::move(observed_points), program)) {
      for (PlanRecord& plan : *records) {
        if (cancelled()) break;
        record(std::move(plan), &result.shared);
      }
    }
  }

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
  // One cancel source for the worker's lifetime: a CANCEL ends the plan
  // in flight (read between its runs) and every plan after it.
  options.cancel = std::make_shared<mpism::CancelSource>();
  bool shutdown = false;
  const auto poll = [&] {
    dist::poll_coordinator(*channel, *options.cancel, &shutdown);
    return false;
  };
  while (auto msg = dist::next_task(*channel, *options.cancel, &shutdown)) {
    std::string error = "unexpected message type";
    const auto task = msg->type == dist::MsgType::kPlan
                          ? dist::parse_plan(msg->payload, &error)
                          : std::nullopt;
    if (!task.has_value()) {
      DAMPI_LOG(kError) << "worker " << worker_id << ": " << error;
      return 3;
    }
    SweepJournal answer;
    answer.fingerprint = fingerprint;
    if (auto plan = run_plan(options, task->index, task->spec, program, poll)) {
      answer.records[task->index] = std::move(*plan);
    }
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
      "%llu executed, %llu shared, %llu resumed, %llu requeued%s\n",
      result.records.size(), static_cast<unsigned long long>(result.planned),
      static_cast<unsigned long long>(result.truncated),
      static_cast<unsigned long long>(result.executed),
      static_cast<unsigned long long>(result.shared),
      static_cast<unsigned long long>(result.resumed),
      static_cast<unsigned long long>(result.requeued),
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
