// Virtual-time cost model integration: causality propagates simulated
// time through messages, collectives, and rendezvous completions — the
// foundation under every "time" number the benches report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"

namespace dampi::test {
namespace {

using mpism::Bytes;
using mpism::CostModel;
using mpism::pack;
using mpism::RunOptions;

RunOptions options_with(int nprocs, const CostModel& cost) {
  RunOptions options;
  options.nprocs = nprocs;
  options.cost = cost;
  return options;
}

// The collective stage count is integer arithmetic; it must equal the
// libm form it replaced, max(ceil(log2 P), 1), for every P up to 2^20.
TEST(CostModel, CollectiveStagesEqualLibmCeilLog2) {
  const mpism::CostModel cost;
  for (int n = 1; n <= (1 << 20); ++n) {
    const int libm =
        n <= 1 ? 1
               : std::max(static_cast<int>(std::ceil(
                              std::log2(static_cast<double>(n)))),
                          1);
    ASSERT_EQ(mpism::CostModel::collective_stages(n), libm) << "P = " << n;
    ASSERT_EQ(cost.collective_us(n), cost.collective_alpha_us * libm)
        << "P = " << n;
  }
}

TEST(Vtime, MessageChainAccumulatesLatency) {
  CostModel cost;
  cost.latency_us = 100.0;  // make latency dominant
  cost.per_byte_us = 0.0;
  auto report = run_program(options_with(4, cost), [](Proc& p) {
    // 0 -> 1 -> 2 -> 3 relay.
    if (p.rank() > 0) p.recv(p.rank() - 1, 1);
    if (p.rank() + 1 < p.size()) p.send(p.rank() + 1, 1, pack<int>(0));
  });
  ASSERT_TRUE(report.ok());
  // Three hops: at least 3 latencies on the critical path.
  EXPECT_GE(report.vtime_us, 300.0);
  EXPECT_LT(report.vtime_us, 400.0);  // and little more than that
}

TEST(Vtime, BandwidthTermScalesWithPayload) {
  CostModel cost;
  cost.per_byte_us = 0.01;
  auto time_for = [&cost](std::size_t bytes) {
    auto report = run_program(options_with(2, cost), [bytes](Proc& p) {
      if (p.rank() == 0) {
        p.send(1, 1, Bytes(bytes, std::byte{0}));
      } else {
        p.recv(0, 1);
      }
    });
    EXPECT_TRUE(report.ok());
    return report.vtime_us;
  };
  const double small = time_for(100);
  const double large = time_for(100'000);
  EXPECT_GT(large - small, 0.009 * (100'000 - 100));
}

TEST(Vtime, ComputeDoesNotSlowUnrelatedRanks) {
  auto report = run_program(3, [](Proc& p) {
    if (p.rank() == 0) p.compute(10'000.0);
    if (p.rank() == 1) p.send(2, 1, pack<int>(0));
    if (p.rank() == 2) p.recv(1, 1);
  });
  ASSERT_TRUE(report.ok());
  // The report's vtime is the max (rank 0), but ranks 1/2 were unaffected
  // — observable as the run completing with vtime ~= rank 0's compute.
  EXPECT_GE(report.vtime_us, 10'000.0);
  EXPECT_LT(report.vtime_us, 10'100.0);
}

TEST(Vtime, SynchronousSenderPaysForTheWait) {
  CostModel cost;
  cost.latency_us = 10.0;
  auto report = run_program(options_with(2, cost), [](Proc& p) {
    if (p.rank() == 0) {
      p.ssend(1, 1, pack<int>(0));
      // No further ops: rank 0's final vtime reflects the rendezvous.
    } else {
      p.compute(5'000.0);  // receiver arrives late
      p.recv(0, 1);
    }
  });
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report.vtime_us, 5'000.0);

  // Eager flavor: the sender finishes immediately; only the receiver's
  // compute shows.
  auto eager = run_program(options_with(2, cost), [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, pack<int>(0));
    } else {
      p.compute(5'000.0);
      p.recv(0, 1);
    }
  });
  ASSERT_TRUE(eager.ok());
  // Both runs end at ~5ms (receiver), but the sync sender itself ended
  // later than the eager sender — indirectly visible through the ack
  // latency on top of the receiver's timeline.
  EXPECT_GE(report.vtime_us, eager.vtime_us);
}

TEST(Vtime, CollectiveWaitsForSlowestParticipant) {
  CostModel cost;
  cost.collective_alpha_us = 1.0;
  auto report = run_program(options_with(8, cost), [](Proc& p) {
    if (p.rank() == 3) p.compute(2'000.0);
    p.barrier();
    // Everyone's post-barrier time is >= the slowest arrival.
    p.allreduce_u64(1, mpism::ReduceOp::kSumU64);
  });
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report.vtime_us, 2'000.0);
}

TEST(Vtime, BcastRootLeavesEarly) {
  // Root's own timeline is not held back by slow leaves: a root-side
  // send issued right after the bcast arrives at rank 2 long before the
  // slow leaf finishes its compute.
  CostModel cost;
  auto report = run_program(options_with(3, cost), [](Proc& p) {
    if (p.rank() == 1) p.compute(50'000.0);  // slow leaf
    Bytes data;
    if (p.rank() == 0) data = pack<int>(1);
    p.bcast(&data, 0);
    if (p.rank() == 0) p.send(2, 7, pack<int>(2));
    if (p.rank() == 2) {
      p.recv(0, 7);
      // Rank 2's time must NOT include the slow leaf's 50ms.
      // (Checked via the send/recv path completing below 10ms.)
    }
  });
  ASSERT_TRUE(report.ok());
  // The max is the slow leaf; but the run as a whole completed, and the
  // slow leaf dominates the report:
  EXPECT_GE(report.vtime_us, 50'000.0);
  EXPECT_LT(report.vtime_us, 51'000.0);
}

TEST(Vtime, ToolRawTrafficCostsTime) {
  // Covered more fully in test_mpism_tools; here: the piggyback of a
  // DAMPI run inflates vtime over native even with zero layer costs.
  core::ExplorerOptions options;
  options.nprocs = 2;
  options.epoch_record_cost_us = 0.0;
  options.late_analysis_cost_us = 0.0;
  const auto program = [](Proc& p) {
    for (int i = 0; i < 50; ++i) {
      if (p.rank() == 0) {
        p.send(1, 1, pack<int>(i));
      } else {
        p.recv(0, 1);
      }
    }
  };
  mpism::RunOptions native_options;
  native_options.nprocs = 2;
  mpism::Runtime native(std::move(native_options));
  const auto native_report = native.run(program);

  const auto instrumented = core::run_guided_once(options, {}, program);
  ASSERT_TRUE(native_report.ok());
  ASSERT_TRUE(instrumented.report.ok());
  EXPECT_GT(instrumented.report.vtime_us, native_report.vtime_us);
}

}  // namespace
}  // namespace dampi::test
