// Figure 9: ADLB with bounded mixing — interleavings explored vs
// process count for k = 0, 1, 2.
//
// Paper: ADLB's degree of non-determinism is "usually far beyond that of
// a typical MPI program"; verifying it unbounded is impractical even for
// a dozen processes, while bounded mixing keeps the counts tractable
// (tens of thousands at 32 procs for k=2) and growing smoothly.
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "core/explorer.hpp"
#include "workloads/adlb.hpp"

using namespace dampi;

int main() {
  bench::banner(
      "Figure 9 — ADLB with bounded mixing (interleavings vs procs)",
      "bounded mixing keeps ADLB's enormous interleaving space tractable; "
      "counts grow with procs and with k");

  const std::uint64_t cap = bench::quick_mode() ? 1500 : 8000;
  const std::vector<int> proc_counts =
      bench::quick_mode() ? std::vector<int>{4, 8}
                          : std::vector<int>{4, 8, 12, 16, 20, 24, 28, 32};
  const std::vector<std::optional<int>> bounds = {0, 1, 2};

  TextTable table;
  table.header({"procs", "k=0", "k=1", "k=2"});

  bench::WallTimer total;
  for (const int procs : proc_counts) {
    workloads::adlb::Config config;
    config.roots_per_server = 3;
    config.children_per_unit = 1;
    config.spawn_depth = 1;
    config.compute_us_per_unit = 25.0;
    std::vector<std::string> cells = {std::to_string(procs)};
    for (const auto& k : bounds) {
      core::ExplorerOptions options;
      options.nprocs = procs;
      options.mixing_bound = k;
      options.max_interleavings = cap;
      core::Explorer explorer(options);
      const auto result = explorer.explore([config](mpism::Proc& p) {
        workloads::adlb::run(p, config);
      });
      std::string cell = std::to_string(result.interleavings);
      if (result.interleaving_budget_exhausted) cell = ">" + cell;
      cells.push_back(std::move(cell));
      if (result.found_bug()) {
        std::printf("unexpected ADLB bug at procs=%d!\n", procs);
        return 1;
      }
    }
    table.row(std::move(cells));
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("Shape check: counts rise with both procs and k, staying "
              "far below the astronomic unbounded space (\">N\" marks the "
              "cap).\n");
  std::printf("(harness wall time: %.1fs)\n\n", total.seconds());

  return 0;
}
