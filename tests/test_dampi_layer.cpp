// DAMPI layer unit tests: epoch recording, late-message potential-match
// analysis, guided replay, piggyback transports under the layer, loop
// abstraction, and the §V unsafe-pattern monitor — one instrumented run
// at a time (the explorer has its own suite).
#include <gtest/gtest.h>

#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::ClockMode;
using core::EpochKey;
using core::ExplorerOptions;
using core::Schedule;
using mpism::Bytes;
using mpism::kAnySource;
using mpism::pack;
using mpism::Proc;
using mpism::unpack;
using piggyback::TransportKind;

// A transport sweep: the layer's behaviour must be identical under the
// separate-message, packed-payload, and telepathic mechanisms.
class TransportSweep : public ::testing::TestWithParam<TransportKind> {};

TEST_P(TransportSweep, Fig3EpochRecordsBothCandidates) {
  ExplorerOptions options = explorer_options(3);
  options.transport = GetParam();
  auto result = run_dampi_once(options, {}, workloads::fig3_benign);
  ASSERT_TRUE(result.report.ok()) << result.report.deadlock_detail;

  // Rank 1 has two wildcard epochs; between them both senders were seen.
  ASSERT_EQ(result.trace.wildcard_recv_epochs, 2u);
  const auto* first = find_epoch(result.trace, 1, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->is_probe);
  // Whichever send matched, the other is a recorded alternative.
  ASSERT_EQ(first->alternatives.size(), 1u);
  const int matched = first->matched_src_world;
  const int alt = first->alternatives.begin()->first;
  EXPECT_TRUE((matched == 0 && alt == 2) || (matched == 2 && alt == 0));
}

TEST_P(TransportSweep, GuidedReplayForcesTheAlternate) {
  ExplorerOptions options = explorer_options(3);
  options.transport = GetParam();
  Schedule schedule;
  schedule.forced[EpochKey{1, 0}] = 2;  // force the first epoch to rank 2
  auto result = run_dampi_once(options, schedule, workloads::fig3_benign);
  ASSERT_TRUE(result.report.ok());
  const auto* first = find_epoch(result.trace, 1, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->matched_src_world, 2);
  // In the guided run, rank 0's send becomes the late alternative.
  ASSERT_EQ(first->alternatives.size(), 1u);
  EXPECT_EQ(first->alternatives.begin()->first, 0);
}

TEST_P(TransportSweep, GuidedReplayExposesFig3Bug) {
  ExplorerOptions options = explorer_options(3);
  options.transport = GetParam();
  Schedule schedule;
  schedule.forced[EpochKey{1, 0}] = 2;
  auto result = run_dampi_once(options, schedule, workloads::fig3_wildcard_bug);
  EXPECT_FALSE(result.report.ok());
  ASSERT_FALSE(result.report.errors.empty());
  EXPECT_NE(result.report.errors[0].message.find("x == 33"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportSweep,
                         ::testing::Values(TransportKind::kSeparateMessage,
                                           TransportKind::kPackedPayload,
                                           TransportKind::kTelepathic));

TEST(DampiLayer, DeterministicProgramRecordsNoEpochs) {
  ExplorerOptions options = explorer_options(2);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, pack<int>(1));
    } else {
      p.recv(0, 1);
    }
    p.barrier();
  });
  ASSERT_TRUE(result.report.ok());
  EXPECT_EQ(result.trace.wildcard_recv_epochs, 0u);
  EXPECT_TRUE(result.trace.epochs.empty());
}

// A send causally *after* the epoch must not be a potential match: the
// receiver's post-epoch clock reaches the sender first.
TEST(DampiLayer, CausallyLaterSendIsNotAPotentialMatch) {
  ExplorerOptions options = explorer_options(3);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    constexpr mpism::Tag t = 5;
    if (p.rank() == 0) {
      p.send(1, t, pack<int>(1));
    } else if (p.rank() == 1) {
      p.recv(kAnySource, t);          // epoch (matches rank 0)
      p.send(2, t, pack<int>(2));     // carries the post-epoch clock
      p.recv(2, t);                   // rank 2's reply: causally after
    } else {
      p.recv(1, t);
      p.send(1, t, pack<int>(3));     // after seeing rank 1's clock
    }
  });
  ASSERT_TRUE(result.report.ok());
  const auto* epoch = find_epoch(result.trace, 1, 0);
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->matched_src_world, 0);
  EXPECT_TRUE(epoch->alternatives.empty());
}

// Tag-incompatible late sends are not alternatives.
TEST(DampiLayer, TagMismatchExcludedFromAlternatives) {
  ExplorerOptions options = explorer_options(3);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 7, pack<int>(1));
    } else if (p.rank() == 2) {
      p.send(1, 8, pack<int>(2));  // different tag: cannot match epoch
    } else {
      p.recv(kAnySource, 7);  // epoch on tag 7 (matches rank 0)
      p.recv(2, 8);
    }
  });
  ASSERT_TRUE(result.report.ok());
  const auto* epoch = find_epoch(result.trace, 1, 0);
  ASSERT_NE(epoch, nullptr);
  EXPECT_TRUE(epoch->alternatives.empty());
}

// Non-overtaking: of two late sends from one source only the earliest is
// the recorded alternative.
TEST(DampiLayer, EarliestLateSendPerSource) {
  ExplorerOptions options = explorer_options(3);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    constexpr mpism::Tag t = 4;
    if (p.rank() == 0) {
      p.send(1, t, pack<int>(1));
    } else if (p.rank() == 2) {
      p.send(1, t, pack<int>(20));  // seq 0: the only legal alternative
      p.send(1, t, pack<int>(21));  // seq 1: blocked by non-overtaking
    } else {
      p.barrier();
      p.recv(kAnySource, t);  // epoch
      p.recv(2, t);
      p.recv(2, t);
    }
    if (p.rank() != 1) p.barrier();
  });
  ASSERT_TRUE(result.report.ok());
  const auto* epoch = find_epoch(result.trace, 1, 0);
  ASSERT_NE(epoch, nullptr);
  // Wildcard matched rank 0 (lowest-source policy among queued heads).
  EXPECT_EQ(epoch->matched_src_world, 0);
  ASSERT_EQ(epoch->alternatives.size(), 1u);
  EXPECT_EQ(epoch->alternatives.at(2).seq, 0u);
}

// Wildcard probes are epochs too; a flagged probe records its source.
TEST(DampiLayer, WildcardProbeRecordsEpoch) {
  ExplorerOptions options = explorer_options(2);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 3, pack<int>(9));
    } else {
      const mpism::Status st = p.probe(kAnySource, 3);
      p.recv(st.source, st.tag);
    }
  });
  ASSERT_TRUE(result.report.ok());
  EXPECT_EQ(result.trace.wildcard_probe_epochs, 1u);
  const auto* epoch = find_epoch(result.trace, 1, 0);
  ASSERT_NE(epoch, nullptr);
  EXPECT_TRUE(epoch->is_probe);
  EXPECT_EQ(epoch->matched_src_world, 0);
}

// Loop abstraction (§III-B1): epochs inside a Pcontrol region keep their
// match but record no alternatives.
TEST(DampiLayer, PcontrolRegionSuppressesAlternatives) {
  ExplorerOptions options = explorer_options(3);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    constexpr mpism::Tag t = 0;
    if (p.rank() == 1) {
      p.barrier();
      p.pcontrol(1, "loop");
      p.recv(kAnySource, t);
      p.pcontrol(0, "loop");
      p.recv(kAnySource, t);  // outside the region: alternatives allowed
    } else {
      p.send(1, t, pack<int>(p.rank()));
      p.barrier();
    }
  });
  ASSERT_TRUE(result.report.ok());
  const auto* inside = find_epoch(result.trace, 1, 0);
  const auto* outside = find_epoch(result.trace, 1, 1);
  ASSERT_NE(inside, nullptr);
  ASSERT_NE(outside, nullptr);
  EXPECT_TRUE(inside->in_ignored_region);
  EXPECT_TRUE(inside->alternatives.empty());
  EXPECT_FALSE(outside->in_ignored_region);
}

// §V monitor: fig10 raises an alert; compliant programs stay silent.
TEST(DampiLayer, UnsafeMonitorFlagsFig10) {
  ExplorerOptions options = explorer_options(3);
  auto result = run_dampi_once(options, {}, workloads::fig10_unsafe_pattern);
  ASSERT_TRUE(result.report.ok());
  ASSERT_FALSE(result.trace.alerts.empty());
  EXPECT_EQ(result.trace.alerts[0].rank, 1);
  EXPECT_NE(result.trace.alerts[0].detail.find("collective"),
            std::string::npos);
}

TEST(DampiLayer, UnsafeMonitorSilentOnCompliantProgram) {
  ExplorerOptions options = explorer_options(3);
  auto result = run_dampi_once(options, {}, workloads::fig3_benign);
  ASSERT_TRUE(result.report.ok());
  EXPECT_TRUE(result.trace.alerts.empty());
}

// Fig. 4 (§II-F): Lamport clocks miss the cross-coupled alternatives;
// vector clocks find them. Forced schedule pins the canonical matching
// (P0->P1, P3->P2) so the assertion is deterministic.
TEST(DampiLayer, Fig4LamportMissesCrossAlternatives) {
  ExplorerOptions options = explorer_options(4);
  options.clock_mode = ClockMode::kLamport;
  Schedule canonical;
  canonical.forced[EpochKey{1, 0}] = 0;
  canonical.forced[EpochKey{2, 0}] = 3;
  auto result =
      run_dampi_once(options, canonical, workloads::fig4_cross_coupled);
  ASSERT_TRUE(result.report.ok());
  const auto* e1 = find_epoch(result.trace, 1, 0);
  const auto* e2 = find_epoch(result.trace, 2, 0);
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(e2, nullptr);
  // The cross-coupled sends carry Lamport clocks equal to the epochs'
  // clocks, so neither is classified late: the documented imprecision.
  EXPECT_TRUE(e1->alternatives.empty());
  EXPECT_TRUE(e2->alternatives.empty());
}

TEST(DampiLayer, Fig4VectorClocksFindCrossAlternatives) {
  ExplorerOptions options = explorer_options(4);
  options.clock_mode = ClockMode::kVector;
  Schedule canonical;
  canonical.forced[EpochKey{1, 0}] = 0;
  canonical.forced[EpochKey{2, 0}] = 3;
  auto result =
      run_dampi_once(options, canonical, workloads::fig4_cross_coupled);
  ASSERT_TRUE(result.report.ok());
  const auto* e1 = find_epoch(result.trace, 1, 0);
  const auto* e2 = find_epoch(result.trace, 2, 0);
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(e2, nullptr);
  // Vector clocks see the cross sends as concurrent with the epochs.
  EXPECT_EQ(e1->alternatives.count(2), 1u);
  EXPECT_EQ(e2->alternatives.count(1), 1u);
}

// Collective clock semantics: after an allreduce every rank's clock
// dominates every pre-collective send, so later sends are never "late"
// for pre-collective epochs of other ranks... but a receiver's *own*
// pre-barrier epoch still sees pre-barrier sends as late.
TEST(DampiLayer, BarrierPropagatesClocksAcrossRanks) {
  ExplorerOptions options = explorer_options(3);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    constexpr mpism::Tag t = 6;
    if (p.rank() == 1) {
      p.recv(kAnySource, t);  // epoch, matches rank 0
      p.barrier();
      p.recv(2, t);  // rank 2 sent after the barrier: not late
    } else if (p.rank() == 0) {
      p.send(1, t, pack<int>(1));
      p.barrier();
    } else {
      p.barrier();
      p.send(1, t, pack<int>(2));  // post-barrier: causally after epoch
    }
  });
  ASSERT_TRUE(result.report.ok());
  const auto* epoch = find_epoch(result.trace, 1, 0);
  ASSERT_NE(epoch, nullptr);
  EXPECT_TRUE(epoch->alternatives.empty());
}

// The packed transport must leave user payloads byte-identical.
TEST(DampiLayer, PackedTransportPreservesPayloads) {
  ExplorerOptions options = explorer_options(2);
  options.transport = TransportKind::kPackedPayload;
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    if (p.rank() == 0) {
      std::vector<double> data = {1.5, -2.25, 1e300, 0.0};
      p.send(1, 1, mpism::pack_vec(data));
    } else {
      Bytes data;
      const mpism::Status st = p.recv(0, 1, &data);
      const auto v = mpism::unpack_vec<double>(data);
      p.require(v.size() == 4 && v[0] == 1.5 && v[1] == -2.25 &&
                    v[2] == 1e300 && v[3] == 0.0,
                "payload corrupted by packed piggyback");
      p.require(st.bytes == 4 * sizeof(double), "status bytes wrong");
    }
  });
  EXPECT_TRUE(result.report.ok());
}

// Wildcard receives on a split communicator: alternatives respect the
// communicator boundary.
TEST(DampiLayer, AlternativesScopedToCommunicator) {
  ExplorerOptions options = explorer_options(4);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    constexpr mpism::Tag t = 2;
    const mpism::CommId sub = p.comm_split(p.rank() % 2, p.rank());
    // Odd group: ranks 1 and 3 (sub ranks 0 and 1).
    if (p.rank() == 1) {
      p.recv(kAnySource, t, nullptr, sub);  // epoch on sub
    } else if (p.rank() == 3) {
      p.send(0, t, pack<int>(1), sub);
    } else if (p.rank() == 0) {
      p.send(1, t, pack<int>(2));  // world message, same tag
    }
    if (p.rank() == 1) p.recv(0, t);
    p.comm_free(sub);
  });
  ASSERT_TRUE(result.report.ok()) << result.report.deadlock_detail;
  const auto* epoch = find_epoch(result.trace, 1, 0);
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->matched_src_world, 3);
  // Rank 0's world-comm send, though late, is not an alternative.
  EXPECT_TRUE(epoch->alternatives.empty());
}

}  // namespace
}  // namespace dampi::test
