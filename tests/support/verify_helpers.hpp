// Helpers for verifier-level tests: run a single DAMPI-instrumented
// execution under an explicit schedule (bypassing the explorer) and
// convenient option builders.
#pragma once

#include "core/dampi_layer.hpp"
#include "core/explorer.hpp"
#include "core/verifier.hpp"

namespace dampi::test {

/// Execute one instrumented run under `schedule`: the explorer's own
/// replay primitive, so tests see exactly what a replay sees.
inline core::SingleRun run_dampi_once(const core::ExplorerOptions& options,
                                      const core::Schedule& schedule,
                                      const mpism::ProgramFn& program) {
  return core::run_guided_once(options, schedule, program);
}

inline core::ExplorerOptions explorer_options(int nprocs) {
  core::ExplorerOptions options;
  options.nprocs = nprocs;
  return options;
}

/// Find the epoch with the given key; nullptr if absent.
inline const core::EpochRecord* find_epoch(const core::RunTrace& trace,
                                           int rank, std::uint64_t nd) {
  for (const auto& e : trace.epochs) {
    if (e.key.rank == rank && e.key.nd_index == nd) return &e;
  }
  return nullptr;
}

}  // namespace dampi::test
