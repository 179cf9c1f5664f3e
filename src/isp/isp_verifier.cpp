#include "isp/isp_verifier.hpp"

namespace dampi::isp {

IspVerifier::IspVerifier(IspOptions options) : options_(std::move(options)) {}

core::VerifyResult IspVerifier::verify(
    const mpism::ProgramFn& program,
    const core::Explorer::RunObserver& observer) {
  core::VerifyOptions verify_options;
  verify_options.explorer = options_.explorer;
  verify_options.measure_native = options_.measure_native;

  // The central scheduler sees everything: exact causality, no piggyback
  // traffic.
  verify_options.explorer.clock_mode = core::ClockMode::kVector;
  verify_options.explorer.transport = piggyback::TransportKind::kTelepathic;
  // DAMPI's decentralized bookkeeping costs do not apply; ISP's costs are
  // the scheduler round trips.
  verify_options.explorer.epoch_record_cost_us = 0.0;
  verify_options.explorer.late_analysis_cost_us = 0.0;

  verify_options.explorer.extra_layers_per_run = []() {
    auto sim = std::make_shared<SchedulerSim>();
    return core::LayerStackFactory(
        [sim](int, int) {
          std::vector<std::unique_ptr<mpism::ToolLayer>> stack;
          stack.push_back(std::make_unique<IspCostLayer>(sim));
          return stack;
        });
  };

  core::Verifier verifier(std::move(verify_options));
  return verifier.verify(program, observer);
}

}  // namespace dampi::isp
