// Sleep-set pruning: interleavings explored with POR off vs sleep on
// the POR workload family, under vector clocks (the mode where the
// independence relation has evidence to act on).
//
//  - fan-in-groups k={2,3,4}: k disjoint wildcard fan-ins — the
//    commuting case. off walks the 2^k cross-product, sleep walks k+1
//    runs; the ratio grows geometrically with k.
//  - all-pairs-churn: every candidate set overlaps, nothing commutes —
//    the honest 1.0x row proving pruning never fires without evidence.
//  - fan-in / dist-fanout: single-root fan-ins, all decisions contest
//    the same receiver — more 1.0x rows.
//
// Every row is an equivalence check, not just a count: both walks must
// report the same bug set and the same per-epoch outcome sets, or the
// bench exits non-zero. Emits BENCH_por.json (override with
// DAMPI_BENCH_OUT) for scripts/bench_compare.py --por.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/explorer.hpp"
#include "core/por.hpp"
#include "core/shard.hpp"
#include "workloads/patterns.hpp"

namespace {

namespace mpism = dampi::mpism;

using dampi::core::ClockMode;
using dampi::core::EpochKey;
using dampi::core::Explorer;
using dampi::core::ExplorerOptions;
using dampi::core::PorMode;
using dampi::core::Schedule;

struct Sweep {
  std::uint64_t interleavings = 0;
  std::uint64_t pruned = 0;
  double wall_s = 0.0;
  std::set<std::string> bug_keys;
  std::map<EpochKey, std::set<int>> outcomes;
};

Sweep sweep(int nprocs, PorMode por, const mpism::ProgramFn& program) {
  ExplorerOptions options;
  options.nprocs = nprocs;
  options.clock_mode = ClockMode::kVector;
  // coop: deterministic counts; fall back to threads where fibers are
  // unavailable (sanitizer builds) — counts stay exact, sets still match.
  if (mpism::coop_supported()) {
    options.sched.kind = mpism::SchedulerKind::kCoop;
  }
  options.por = por;
  Sweep s;
  dampi::bench::WallTimer timer;
  Explorer explorer(options);
  auto result = explorer.explore(
      program, [&s](const dampi::core::RunTrace& trace,
                    const mpism::RunReport&, const Schedule&) {
        for (const auto& e : trace.epochs) {
          if (e.matched_src_world >= 0) {
            s.outcomes[e.key].insert(e.matched_src_world);
          }
        }
      });
  s.wall_s = timer.seconds();
  s.interleavings = result.interleavings;
  s.pruned = result.por_pruned;
  for (const auto& bug : result.bugs) {
    s.bug_keys.insert(dampi::core::bug_key(bug));
  }
  return s;
}

struct Row {
  std::string workload;
  int procs = 0;
  std::uint64_t off_runs = 0;
  std::uint64_t sleep_runs = 0;
  std::uint64_t pruned = 0;
  double off_wall_s = 0.0;
  double sleep_wall_s = 0.0;
  bool equivalent = false;
};

Row measure(const std::string& name, int nprocs,
            const mpism::ProgramFn& program) {
  const Sweep off = sweep(nprocs, PorMode::kOff, program);
  const Sweep sleep = sweep(nprocs, PorMode::kSleep, program);
  Row row;
  row.workload = name;
  row.procs = nprocs;
  row.off_runs = off.interleavings;
  row.sleep_runs = sleep.interleavings;
  row.pruned = sleep.pruned;
  row.off_wall_s = off.wall_s;
  row.sleep_wall_s = sleep.wall_s;
  row.equivalent = off.bug_keys == sleep.bug_keys &&
                   off.outcomes == sleep.outcomes &&
                   sleep.interleavings <= off.interleavings;
  const double ratio =
      sleep.interleavings == 0
          ? 0.0
          : static_cast<double>(off.interleavings) /
                static_cast<double>(sleep.interleavings);
  std::printf("%-18s %6d %10llu %12llu %8llu %7.2fx  %s\n", name.c_str(),
              nprocs, static_cast<unsigned long long>(off.interleavings),
              static_cast<unsigned long long>(sleep.interleavings),
              static_cast<unsigned long long>(sleep.pruned), ratio,
              row.equivalent ? "equivalent" : "DIVERGED");
  return row;
}

}  // namespace

int main() {
  dampi::bench::banner(
      "Sleep-set POR: interleavings POR off vs sleep (vector clocks)",
      "pruning commuting decisions shrinks the walk geometrically on "
      "disjoint wildcard groups while preserving bug and outcome sets");

  std::printf("%-18s %6s %10s %12s %8s %8s  %s\n", "workload", "procs",
              "off_runs", "sleep_runs", "pruned", "ratio", "check");

  std::vector<Row> rows;
  std::vector<int> group_counts = {2, 3, 4};
  if (dampi::bench::quick_mode()) group_counts = {2, 3};
  for (const int k : group_counts) {
    rows.push_back(measure("fan-in-groups-" + std::to_string(k), 3 * k,
                           [k](mpism::Proc& p) {
                             dampi::workloads::fan_in_groups(p, k);
                           }));
  }
  rows.push_back(measure("all-pairs-churn", 3, [](mpism::Proc& p) {
    dampi::workloads::all_pairs_churn(p, 1);
  }));
  rows.push_back(measure("fan-in", 4, [](mpism::Proc& p) {
    dampi::workloads::fan_in_rounds(p, 2);
  }));
  rows.push_back(measure("dist-fanout", 4, [](mpism::Proc& p) {
    dampi::workloads::dist_fanout(p, 2, /*spin_us=*/5.0);
  }));

  bool all_equivalent = true;
  double best_ratio = 0.0;
  for (const Row& row : rows) {
    all_equivalent &= row.equivalent;
    if (row.sleep_runs > 0) {
      best_ratio = std::max(
          best_ratio, static_cast<double>(row.off_runs) /
                          static_cast<double>(row.sleep_runs));
    }
  }
  std::printf("\nbest reduction: %.2fx; equivalence: %s\n", best_ratio,
              all_equivalent ? "all rows" : "DIVERGED");

  const char* out_path = std::getenv("DAMPI_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_por.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_por: cannot write %s\n", out_path);
    return 2;
  }
  std::fprintf(f, "{\n  \"best_ratio\": %.4f,\n  \"rows\": [\n", best_ratio);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"procs\": %d, \"off_runs\": %llu, "
        "\"sleep_runs\": %llu, \"pruned\": %llu, \"off_wall_s\": %.6f, "
        "\"sleep_wall_s\": %.6f, \"equivalent\": %s}%s\n",
        row.workload.c_str(), row.procs,
        static_cast<unsigned long long>(row.off_runs),
        static_cast<unsigned long long>(row.sleep_runs),
        static_cast<unsigned long long>(row.pruned), row.off_wall_s,
        row.sleep_wall_s, row.equivalent ? "true" : "false",
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  if (!all_equivalent) {
    std::fprintf(stderr,
                 "bench_por: POR sleep diverged from POR off\n");
    return 1;
  }
  return 0;
}
