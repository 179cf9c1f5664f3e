// Figure 8: matrix multiplication with bounded mixing — interleavings
// explored vs process count for k = 0, 1, 2 and no bounds.
//
// Paper: unbounded exploration explodes with the process count (off the
// chart past a handful of workers) while bounded mixing grows gently,
// roughly linearly as k increases — the knob that lets users buy
// coverage incrementally.
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "core/explorer.hpp"
#include "workloads/matmult.hpp"

using namespace dampi;

namespace {

std::string count_str(std::uint64_t n, bool capped) {
  return capped ? (">" + std::to_string(n)) : std::to_string(n);
}

}  // namespace

int main() {
  bench::banner(
      "Figure 8 — matmult with bounded mixing (interleavings vs procs)",
      "unbounded search explodes with procs; k=0,1,2 grow gently and "
      "~linearly in k");

  const std::uint64_t cap = bench::quick_mode() ? 2000 : 20000;
  const std::vector<int> proc_counts =
      bench::quick_mode() ? std::vector<int>{2, 3, 4}
                          : std::vector<int>{2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::optional<int>> bounds = {0, 1, 2, std::nullopt};

  TextTable table;
  table.header({"procs", "k=0", "k=1", "k=2", "no bounds"});

  bench::WallTimer total;
  for (const int procs : proc_counts) {
    workloads::MatmultConfig config;
    // Two chunks per worker: the interleaving space deepens with the
    // process count, as in the paper's runs.
    config.n = 2 * (procs - 1);
    config.chunk_rows = 1;
    std::vector<std::string> cells = {std::to_string(procs)};
    for (const auto& k : bounds) {
      core::ExplorerOptions options;
      options.nprocs = procs;
      options.mixing_bound = k;
      options.max_interleavings = cap;
      core::Explorer explorer(options);
      const auto result = explorer.explore([config](mpism::Proc& p) {
        workloads::matmult(p, config);
      });
      cells.push_back(count_str(result.interleavings,
                                result.interleaving_budget_exhausted));
      if (result.found_bug()) {
        std::printf("unexpected bug at procs=%d!\n", procs);
        return 1;
      }
    }
    table.row(std::move(cells));
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("Shape check: every column grows with procs; rows are "
              "monotone in k; the no-bounds column dwarfs k<=2 at larger "
              "proc counts (\">N\" marks the exploration cap).\n");
  std::printf("(harness wall time: %.1fs)\n\n", total.seconds());

  return 0;
}
