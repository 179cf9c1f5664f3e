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

#include <memory>

#include "core/decision.hpp"
#include "core/epoch.hpp"
#include "core/options.hpp"
#include "mpism/report.hpp"
#include "mpism/runtime.hpp"

namespace dampi::mpism {
class Engine;
}  // namespace dampi::mpism

namespace dampi::piggyback {
class TelepathicBoard;
}  // namespace dampi::piggyback

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
  /// allocating.
  void run(const Schedule& schedule, const mpism::ProgramFn& program,
           SingleRun* out);

  /// Objects checked out of the engine's pools: zero between runs.
  std::uint64_t pooled_live() const;

 private:
  mpism::ToolSetup make_tools() const;

  std::shared_ptr<TraceSink> sink_;
  std::shared_ptr<DampiShared> shared_;
  std::shared_ptr<piggyback::TelepathicBoard> board_;
  std::unique_ptr<mpism::Engine> engine_;
};

/// A one-shot ReplayContext.
SingleRun run_guided_once(const ExplorerOptions& options,
                          const Schedule& schedule,
                          const mpism::ProgramFn& program);

}  // namespace dampi::core
