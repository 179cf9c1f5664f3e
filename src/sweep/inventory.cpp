#include "sweep/inventory.hpp"

#include <memory>
#include <utility>

#include "common/strutil.hpp"
#include "core/explorer.hpp"
#include "mpism/tool.hpp"

namespace dampi::sweep {

namespace {

/// Counts this rank's MPI calls exactly like FaultLayer does (one count
/// per pre_* hook, in program order) and records each call's kind.
/// Ranks write disjoint slots of a pre-sized shared vector, so
/// concurrent rank threads never contend.
class InventoryLayer final : public mpism::ToolLayer {
 public:
  InventoryLayer(std::shared_ptr<std::vector<std::string>> ops,
                 mpism::Rank rank)
      : ops_(std::move(ops)), rank_(static_cast<std::size_t>(rank)) {}

  void pre_isend(mpism::ToolCtx&, mpism::SendCall&) override { record('s'); }
  void pre_irecv(mpism::ToolCtx&, mpism::RecvCall&) override { record('r'); }
  void pre_wait(mpism::ToolCtx&, mpism::RequestId) override { record('w'); }
  void pre_probe(mpism::ToolCtx&, mpism::ProbeCall&) override { record('p'); }
  void pre_collective(mpism::ToolCtx&, mpism::CollCall&) override {
    record('c');
  }

 private:
  void record(char kind) { (*ops_)[rank_].push_back(kind); }

  std::shared_ptr<std::vector<std::string>> ops_;
  std::size_t rank_;
};

}  // namespace

OpInventory harvest_inventory(const core::ExplorerOptions& base,
                              const mpism::ProgramFn& program) {
  OpInventory inventory;
  if (base.nprocs <= 0) {
    inventory.error = "inventory: nprocs must be positive";
    return inventory;
  }
  auto ops = std::make_shared<std::vector<std::string>>(
      static_cast<std::size_t>(base.nprocs));

  // One guided run: of the explorer's hooks and journals only the fault
  // plan would reach it, and the harvest is fault-free.
  core::ExplorerOptions options = base;
  options.fault.reset();
  // A livelocked baseline would otherwise run, and grow, without end.
  if (options.max_run_ops == 0) options.max_run_ops = kSweepMaxRunOps;
  // Stack the counter exactly where FaultLayer will sit during the
  // injection campaigns: topmost, above any baseline extras, so both
  // see the same user-facing call sequence and the coordinates line up.
  auto base_extra = options.extra_layers_per_run;
  options.extra_layers_per_run = [ops, base_extra]() {
    core::LayerStackFactory under;
    if (base_extra) under = base_extra();
    return core::LayerStackFactory(
        [ops, under](int rank, int nprocs)
            -> std::vector<std::unique_ptr<mpism::ToolLayer>> {
          std::vector<std::unique_ptr<mpism::ToolLayer>> stack;
          stack.push_back(std::make_unique<InventoryLayer>(
              ops, static_cast<mpism::Rank>(rank)));
          if (under) {
            for (auto& layer : under(rank, nprocs)) {
              stack.push_back(std::move(layer));
            }
          }
          return stack;
        });
  };

  const core::SingleRun run =
      core::run_guided_once(options, options.initial_schedule, program);
  inventory.ops = std::move(*ops);
  inventory.baseline_deadlocked = run.report.deadlocked;
  inventory.baseline_errored = !run.report.errors.empty();
  inventory.baseline_hung = run.report.timed_out();
  if (run.report.cancelled) {
    inventory.error =
        strfmt("inventory: discovery run cancelled (%s)",
               run.report.stop_reason.c_str());
  } else if (inventory.total_ops() == 0) {
    inventory.error = "inventory: program issued no MPI calls";
  }
  return inventory;
}

}  // namespace dampi::sweep
