// ISP baseline tests: same verification power, centralized cost profile.
#include <gtest/gtest.h>

#include "isp/isp_verifier.hpp"
#include "support/program_gen.hpp"
#include "support/reference_enumerator.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/matmult.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using isp::IspOptions;
using isp::IspVerifier;
using isp::SchedulerSim;
using mpism::pack;
using mpism::Proc;

IspOptions isp_options(int nprocs) {
  IspOptions options;
  options.explorer = explorer_options(nprocs);
  return options;
}

TEST(SchedulerSim, SerializesArrivals) {
  SchedulerSim sim;
  // Two calls arriving together are serviced back to back.
  EXPECT_DOUBLE_EQ(sim.transact(10.0, 5.0), 15.0);
  EXPECT_DOUBLE_EQ(sim.transact(10.0, 5.0), 20.0);
  // A late arrival after an idle gap starts at its own arrival time.
  EXPECT_DOUBLE_EQ(sim.transact(100.0, 5.0), 105.0);
  EXPECT_EQ(sim.transactions(), 3u);
}

TEST(Isp, FindsTheFig3Bug) {
  IspVerifier verifier(isp_options(3));
  auto result = verifier.verify(workloads::fig3_wildcard_bug);
  EXPECT_TRUE(result.error_found);
}

TEST(Isp, FindsWildcardDependentDeadlock) {
  IspVerifier verifier(isp_options(3));
  auto result = verifier.verify(workloads::wildcard_dependent_deadlock);
  EXPECT_TRUE(result.deadlock_found);
}

TEST(Isp, GlobalViewIsCompleteOnFig4) {
  // ISP's vector-clock-exact view covers the cross-coupled pattern that
  // DAMPI's Lamport mode misses.
  IspOptions options = isp_options(4);
  std::size_t outcomes = 0;
  IspVerifier verifier(options);
  std::set<OutcomeSignature> seen;
  auto result = verifier.verify(
      workloads::fig4_cross_coupled,
      [&seen](const core::RunTrace& trace, const mpism::RunReport& report,
              const core::Schedule&) {
        seen.insert(signature_of(trace, report));
      });
  outcomes = seen.size();
  EXPECT_FALSE(result.error_found);
  EXPECT_GE(outcomes, 3u);
}

TEST(Isp, SlowdownExceedsDampi) {
  // The same program verified by both tools: ISP's per-call round trips
  // dominate DAMPI's piggyback overhead.
  workloads::MatmultConfig config;
  config.n = 4;
  config.chunk_rows = 2;
  const auto program = [config](Proc& p) { workloads::matmult(p, config); };

  core::VerifyOptions dampi_options;
  dampi_options.explorer = explorer_options(3);
  dampi_options.explorer.max_interleavings = 1;
  core::Verifier dampi(dampi_options);
  const auto dampi_result = dampi.verify(program);

  IspOptions options = isp_options(3);
  options.explorer.max_interleavings = 1;
  IspVerifier ispv(options);
  const auto isp_result = ispv.verify(program);

  EXPECT_GT(isp_result.slowdown, dampi_result.slowdown);
  EXPECT_GT(isp_result.slowdown, 2.0);  // round trips are not cheap
}

// The paper's Fig. 5 shape in miniature: ISP's verification time grows
// much faster with process count than DAMPI's on a deterministic,
// communication-heavy program.
TEST(Isp, CentralizedCostScalesWorseThanDampi) {
  auto comm_heavy = [](Proc& p) {
    const int n = p.size();
    for (int round = 0; round < 20; ++round) {
      const int to = (p.rank() + 1) % n;
      const int from = (p.rank() + n - 1) % n;
      mpism::RequestId r = p.irecv(from, 1);
      p.send(to, 1, pack<int>(round));
      p.wait(r);
      p.allreduce_u64(1, mpism::ReduceOp::kSumU64);
    }
  };

  // Virtual-time growth depends on the order ranks arrive, which OS
  // threads leave to the kernel: pin both verifiers to coop round-robin
  // so the DAMPI_SCHED=thread sweep cannot flake the comparison.
  auto pinned = [](int nprocs) {
    core::ExplorerOptions options = explorer_options(nprocs);
    options.max_interleavings = 1;
    options.sched.kind = mpism::SchedulerKind::kCoop;
    options.sched.pick = mpism::SchedPolicy::kRoundRobin;
    return options;
  };
  auto instrumented_vtime = [&](int nprocs, bool use_isp) {
    if (use_isp) {
      IspOptions options;
      options.explorer = pinned(nprocs);
      IspVerifier verifier(options);
      return verifier.verify(comm_heavy).instrumented_vtime_us;
    }
    core::VerifyOptions options;
    options.explorer = pinned(nprocs);
    core::Verifier verifier(options);
    return verifier.verify(comm_heavy).instrumented_vtime_us;
  };

  const double isp_small = instrumented_vtime(4, true);
  const double isp_large = instrumented_vtime(16, true);
  const double dampi_small = instrumented_vtime(4, false);
  const double dampi_large = instrumented_vtime(16, false);

  const double isp_growth = isp_large / isp_small;
  const double dampi_growth = dampi_large / dampi_small;
  // ISP's scheduler occupancy grows with total calls (4x more ranks =>
  // ~4x more scheduler work); DAMPI's per-rank work is flat.
  EXPECT_GT(isp_growth, 2.0 * dampi_growth);
}

TEST(Isp, BoundedMixingWorksUnderIsp) {
  // fan_in_rounds queues every candidate before any receive posts, so
  // interleaving counts are deterministic.
  const auto program = [](Proc& p) { workloads::fan_in_rounds(p, 2); };

  auto count_with = [&](std::optional<int> k) {
    IspOptions options = isp_options(3);
    options.explorer.mixing_bound = k;
    options.explorer.max_interleavings = 4096;
    IspVerifier verifier(options);
    return verifier.verify(program).exploration.interleavings;
  };
  EXPECT_LE(count_with(0), count_with(1));
  EXPECT_LE(count_with(1), count_with(std::nullopt));
}

// ISP has the same coverage guarantee as vector-mode DAMPI: on random
// programs its explored outcome set equals the brute-force oracle's.
TEST(Isp, MatchesOracleOnRandomPrograms) {
  for (std::uint64_t seed : {3u, 17u, 59u}) {
    const GeneratedProgram prog = generate_program(seed, 3, 4);
    const auto run = [prog](Proc& p) { run_generated(p, prog); };

    core::ExplorerOptions oracle_options = explorer_options(3);
    oracle_options.clock_mode = core::ClockMode::kVector;
    ReferenceEnumerator oracle(oracle_options, run);
    const auto reachable = oracle.enumerate();

    IspOptions options = isp_options(3);
    options.explorer.max_interleavings = 1u << 14;
    options.measure_native = false;
    std::set<OutcomeSignature> seen;
    IspVerifier verifier(options);
    verifier.verify(run, [&seen](const core::RunTrace& trace,
                                 const mpism::RunReport& report,
                                 const core::Schedule&) {
      seen.insert(signature_of(trace, report));
    });
    EXPECT_EQ(seen, reachable) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dampi::test
