#include "core/replay_context.hpp"

#include <algorithm>

#include "core/dampi_layer.hpp"
#include "mpism/engine.hpp"
#include "mpism/fault.hpp"
#include "obs/metrics.hpp"

namespace dampi::core {

mpism::RunOptions run_options_for(const ExplorerOptions& options) {
  mpism::RunOptions run_options;
  run_options.nprocs = options.nprocs;
  run_options.cost = options.cost;
  run_options.policy = options.policy;
  run_options.policy_seed = options.policy_seed;
  run_options.sched = options.sched;
  run_options.match = options.match;
  run_options.engine_lock = options.engine_lock;
  run_options.max_run_wall_seconds = options.run_deadline_seconds;
  run_options.max_ops = options.max_run_ops;
  run_options.cancel = options.cancel;
  return run_options;
}

ReplayContext::ReplayContext(const ExplorerOptions& options)
    : sink_(std::make_shared<TraceSink>()),
      shared_(std::make_shared<DampiShared>(options, Schedule{}, sink_)) {
  mpism::RunOptions run_options = run_options_for(options);
  run_options.tools = make_tools();
  engine_ = std::make_unique<mpism::Engine>(std::move(run_options));
}

ReplayContext::~ReplayContext() = default;

mpism::ToolSetup ReplayContext::make_tools() const {
  mpism::ToolSetup tools = make_dampi_setup(shared_);
  if (shared_->options.fault) {
    // Fault layers sit at the very top of each rank's stack so an
    // injected abort/error/delay hits before DAMPI's bookkeeping, the
    // same place a PnMPI fault tool would wrap the application.
    auto base = tools.make_stack;
    auto plan = shared_->options.fault;
    tools.make_stack = [base, plan](int rank, int nprocs) {
      auto stack = base(rank, nprocs);
      stack.insert(stack.begin(), std::make_unique<mpism::FaultLayer>(
                                      plan, static_cast<mpism::Rank>(rank)));
      return stack;
    };
  }
  return tools;
}

void ReplayContext::run(const Schedule& schedule,
                        const mpism::ProgramFn& program, SingleRun* out,
                        std::chrono::steady_clock::time_point campaign_deadline) {
  if (shared_->options.extra_layers_per_run) {
    // Extra layers are made per run (the ISP baseline shares one
    // scheduler model among a run's ranks), so their stacks are too.
    engine_->set_tools(make_tools());
  }
  shared_->reset(schedule);
  sink_->reset(std::move(out->trace));
  // The run ends with every layer flushed into the sink (the engine's
  // reset flushes aborted ranks too) before the trace is taken.
  engine_->run(program, &out->report, campaign_deadline);
  out->trace = sink_->take();
  static obs::Counter& epochs_recv_metric =
      obs::Registry::instance().counter("layer.epochs_recv");
  static obs::Counter& epochs_probe_metric =
      obs::Registry::instance().counter("layer.epochs_probe");
  static obs::Counter& potential_metric =
      obs::Registry::instance().counter("layer.potential_matches");
  static obs::Counter& late_metric =
      obs::Registry::instance().counter("layer.late_messages");
  epochs_recv_metric.add(out->trace.wildcard_recv_epochs);
  epochs_probe_metric.add(out->trace.wildcard_probe_epochs);
  potential_metric.add(out->trace.potential_matches);
  late_metric.add(out->trace.late_messages_seen);
  out->divergences = shared_->divergences.load(std::memory_order_relaxed);
}

std::uint64_t ReplayContext::pooled_live() const {
  return engine_->pooled_live();
}

SingleRun run_guided_once(const ExplorerOptions& options,
                          const Schedule& schedule,
                          const mpism::ProgramFn& program) {
  ReplayContext context(options);
  SingleRun out;
  context.run(schedule, program, &out);
  return out;
}

const SingleRun& cut_view(const SingleRun& run, const RunCut& cut,
                          SingleRun* scratch) {
  if (cut.call_seq == 0) return run;
  const std::uint64_t at = cut.call_seq;

  mpism::RunReport& report = scratch->report;
  report.completed = false;
  report.deadlocked = false;
  report.errors.assign(1, cut.error);
  report.deadlock_detail.clear();
  report.expired = mpism::RunBudget::kNone;
  report.cancelled = false;
  report.stop_reason.clear();
  report.vtime_us = 0.0;
  report.wall_seconds = 0.0;
  report.stats = mpism::OpStats{};
  report.comm_leaks = 0;
  report.request_leaks = 0;
  report.messages_sent = 0;

  // A fresh trace (cold sort cache) on the scratch trace's storage; the
  // spare records are assigned into, so their buffers are reused too.
  RunTrace trace;
  trace.epochs = std::move(scratch->trace.epochs);
  trace.alerts = std::move(scratch->trace.alerts);
  trace.alerts.clear();
  std::size_t kept = 0;
  for (const EpochRecord& epoch : run.trace.epochs) {
    if (epoch.opened_at >= at) continue;
    if (kept == trace.epochs.size()) trace.epochs.emplace_back();
    EpochRecord& view = trace.epochs[kept++];
    view = epoch;
    if (epoch.matched_at >= at) {
      view.matched_src_world = -1;
      view.matched_seq = 0;
      view.matched_at = 0;
    }
    view.alternatives.erase_if([at](const auto& entry) {
      return entry.second.seen_at >= at;
    });
    if (view.is_probe) {
      ++trace.wildcard_probe_epochs;
    } else {
      ++trace.wildcard_recv_epochs;
    }
    if (view.auto_abstracted) ++trace.auto_abstracted_epochs;
    trace.potential_matches += view.alternatives.size();
  }
  trace.epochs.resize(kept);
  std::sort(trace.epochs.begin(), trace.epochs.end(),
            [](const EpochRecord& a, const EpochRecord& b) {
              return a.key < b.key;
            });
  for (const UnsafeAlert& alert : run.trace.alerts) {
    if (alert.raised_at < at) trace.alerts.push_back(alert);
  }
  std::stable_sort(trace.alerts.begin(), trace.alerts.end(),
                   [](const UnsafeAlert& a, const UnsafeAlert& b) {
                     return a.rank < b.rank;
                   });
  scratch->trace = std::move(trace);
  scratch->divergences = 0;
  return *scratch;
}

}  // namespace dampi::core
