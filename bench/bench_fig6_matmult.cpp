// Figure 6: matrix multiplication — time to explore N interleavings,
// DAMPI vs ISP (N = 250..1000).
//
// Paper: both tools grow linearly in the number of interleavings, but
// ISP's slope is vastly steeper (up to ~6000s at 1000 interleavings vs
// near-flat DAMPI) because each replay pays the full centralized
// per-call synchronization again. Measured quantity: cumulative virtual
// time across all replays, sampled at interleaving checkpoints during a
// single exploration per tool.
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "core/explorer.hpp"
#include "core/verifier.hpp"
#include "isp/isp_verifier.hpp"
#include "workloads/matmult.hpp"

using namespace dampi;

namespace {

/// Cumulative virtual seconds after each checkpoint interleaving count.
std::map<std::uint64_t, double> explore_checkpoints(
    bool use_isp, int procs, const workloads::MatmultConfig& config,
    const std::vector<std::uint64_t>& checkpoints, double* wall_seconds) {
  std::map<std::uint64_t, double> out;
  std::uint64_t runs = 0;
  double vtime_us = 0;
  auto observer = [&](const core::RunTrace&, const mpism::RunReport& report,
                      const core::Schedule&) {
    ++runs;
    vtime_us += report.vtime_us;
    for (const std::uint64_t c : checkpoints) {
      if (runs == c) out[c] = vtime_us / 1e6;
    }
  };
  const auto program = [config](mpism::Proc& p) {
    workloads::matmult(p, config);
  };
  bench::WallTimer timer;
  if (use_isp) {
    isp::IspOptions options;
    options.explorer.nprocs = procs;
    options.explorer.max_interleavings = checkpoints.back();
    options.measure_native = false;
    isp::IspVerifier verifier(options);
    verifier.verify(program, observer);
  } else {
    core::VerifyOptions options;
    options.explorer.nprocs = procs;
    options.explorer.max_interleavings = checkpoints.back();
    options.measure_native = false;
    core::Verifier verifier(options);
    verifier.verify(program, observer);
  }
  *wall_seconds = timer.seconds();
  // If the space was exhausted early, carry the final value forward.
  for (const std::uint64_t c : checkpoints) {
    if (out.count(c) == 0) out[c] = vtime_us / 1e6;
  }
  return out;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 6 — matmult: time to explore interleavings, DAMPI vs ISP",
      "both linear in interleavings; ISP's slope is orders of magnitude "
      "steeper");

  const int procs = bench::quick_mode() ? 4 : 5;
  workloads::MatmultConfig config;
  config.n = 12;
  config.chunk_rows = 1;  // 12 chunks: a deep interleaving space
  const std::vector<std::uint64_t> checkpoints =
      bench::quick_mode() ? std::vector<std::uint64_t>{50, 100}
                          : std::vector<std::uint64_t>{250, 500, 750, 1000};

  double dampi_wall = 0, isp_wall = 0;
  const auto dampi =
      explore_checkpoints(false, procs, config, checkpoints, &dampi_wall);
  const auto ispr =
      explore_checkpoints(true, procs, config, checkpoints, &isp_wall);

  TextTable table;
  table.header({"interleavings", "DAMPI (s)", "ISP (s)", "ISP/DAMPI"});
  for (const std::uint64_t c : checkpoints) {
    table.row({std::to_string(c), fmt_fixed(dampi.at(c), 2),
               fmt_fixed(ispr.at(c), 2),
               fmt_fixed(ispr.at(c) / std::max(dampi.at(c), 1e-9), 1) + "x"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Shape check: both columns grow ~linearly with the "
              "interleaving count; the ISP/DAMPI ratio stays large and "
              "roughly constant.\n");
  std::printf("(harness wall: DAMPI %.1fs, ISP %.1fs)\n\n", dampi_wall,
              isp_wall);

  return 0;
}
