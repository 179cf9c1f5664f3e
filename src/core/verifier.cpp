#include "core/verifier.hpp"

namespace dampi::core {

double measure_native_vtime(const ExplorerOptions& options,
                            const mpism::ProgramFn& program) {
  // Watchdog budgets and external cancellation also guard the native
  // measurement run: a program that livelocks natively must not wedge
  // the verifier before exploration even starts.
  mpism::Runtime runtime(run_options_for(options));
  return runtime.run(program).vtime_us;
}

VerifyResult summarize_verify(ExploreResult exploration,
                              double native_vtime_us) {
  VerifyResult result;
  result.exploration = std::move(exploration);
  result.native_vtime_us = native_vtime_us;
  result.instrumented_vtime_us = result.exploration.first_run_vtime_us;
  if (result.native_vtime_us > 0.0) {
    result.slowdown = result.instrumented_vtime_us / result.native_vtime_us;
  }
  result.comm_leaks = result.exploration.first_report.comm_leaks;
  result.request_leaks = result.exploration.first_report.request_leaks;
  for (const BugRecord& bug : result.exploration.bugs) {
    if (bug.kind == BugRecord::Kind::kDeadlock) result.deadlock_found = true;
    if (bug.kind == BugRecord::Kind::kError) result.error_found = true;
    if (bug.kind == BugRecord::Kind::kHang) result.hang_found = true;
  }
  return result;
}

VerifyResult Verifier::verify(const mpism::ProgramFn& program,
                              const Explorer::RunObserver& observer) {
  const double native_vtime_us =
      options_.measure_native ? measure_native_vtime(options_.explorer, program)
                              : 0.0;
  Explorer explorer(options_.explorer);
  return summarize_verify(explorer.explore(program, observer),
                          native_vtime_us);
}

}  // namespace dampi::core
