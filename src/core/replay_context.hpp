// ReplayContext: one replay executor's warm state.
//
// DAMPI's search is stateless: every interleaving is a fresh guided
// re-execution of the program (§II-B), so a walk's cost is per-replay
// setup and teardown times the number of interleavings. A context keeps
// everything one replay needs alive across a walk and resets it between
// runs instead of rebuilding it:
//
//  - the engine (mpism/engine.hpp), with its per-rank request and
//    message pools, match indexes, flat request and counter tables,
//    communicator records and scheduler (fiber stacks included);
//  - each rank's tool stack: the DAMPI layer with its clocks, epoch
//    records and piggyback transport, plus the fault layer if any;
//  - DampiShared (schedule and guided frontier) and the TraceSink, whose
//    epoch records circulate through the SingleRun a caller hands back.
//
// Reset, not rebuild, is safe because each component's reset restores
// exactly its constructed state (the reset contract in runtime.hpp), so
// a run's report, trace and virtual times are bit-identical to a fresh
// context's whatever ran before. run_guided_once is a one-shot context;
// the explorer owns one for a walk.
#pragma once

#include <chrono>
#include <memory>

#include "core/decision.hpp"
#include "core/epoch.hpp"
#include "core/options.hpp"
#include "mpism/report.hpp"
#include "mpism/runtime.hpp"

namespace dampi::mpism {
class Engine;
}  // namespace dampi::mpism

namespace dampi::core {

struct DampiShared;

/// One instrumented execution under an explicit decision file — the
/// replay primitive (used by the explorer, by tests, and by
/// verify_cli --replay to re-run saved reproducers).
struct SingleRun {
  mpism::RunReport report;
  RunTrace trace;
  std::uint64_t divergences = 0;
};

/// The engine options every run of an exploration shares: rank count,
/// cost model, match policy and seed, scheduler, matcher, engine lock,
/// per-run watchdog budgets and cancellation. The tool stack is left
/// empty, so the result as-is describes a native run.
mpism::RunOptions run_options_for(const ExplorerOptions& options);

class ReplayContext {
 public:
  /// Copies `options` (the context outlives the caller's copy).
  explicit ReplayContext(const ExplorerOptions& options);
  ~ReplayContext();

  ReplayContext(const ReplayContext&) = delete;
  ReplayContext& operator=(const ReplayContext&) = delete;

  /// One guided run of `program` under `schedule`, into `*out`. Whatever
  /// `*out` held is discarded, but its storage (trace epochs, report
  /// tables) is reused — hand back the previous outcome to run without
  /// allocating. `campaign_deadline`, when set, ends the run cancelled
  /// once it passes (mpism::Engine::run).
  void run(const Schedule& schedule, const mpism::ProgramFn& program,
           SingleRun* out,
           std::chrono::steady_clock::time_point campaign_deadline = {});

  /// Objects checked out of the engine's pools: zero between runs.
  std::uint64_t pooled_live() const;

 private:
  mpism::ToolSetup make_tools() const;

  std::shared_ptr<TraceSink> sink_;
  std::shared_ptr<DampiShared> shared_;
  std::unique_ptr<mpism::Engine> engine_;
};

/// A one-shot ReplayContext.
SingleRun run_guided_once(const ExplorerOptions& options,
                          const Schedule& schedule,
                          const mpism::ProgramFn& program);

/// Where a stop point was reached in a replay: the call (ToolCtx::
/// call_seq, 0 = never reached) and the error the point raises there.
struct RunCut {
  std::uint64_t call_seq = 0;
  mpism::ErrorInfo error;
};

/// The run the explorer would have judged had the stop at `cut` fired in
/// the replay that produced `run`: under the coop scheduler a replay of
/// a schedule is the same run up to the stopping call, the stop ends it
/// there, and a stopped rank leaves no epoch, match or alternative
/// behind. So the view keeps the epochs opened before the call, matched
/// only if the match was bound before it, with the alternatives first
/// seen before it and the alerts raised before it, in the rank-major
/// order a stopped run flushes them; its report is a stopped run's —
/// not completed, no deadlock, no budget expiry, and the cut's error.
/// A view knows nothing the stamps do not tell: its virtual time, op
/// statistics, late-message count and divergences read zero. Returns
/// `run` itself when the point was never reached, else `*scratch`
/// (whose storage is reused) holding the view.
const SingleRun& cut_view(const SingleRun& run, const RunCut& cut,
                          SingleRun* scratch);

}  // namespace dampi::core
