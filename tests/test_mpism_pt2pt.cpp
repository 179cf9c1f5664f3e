// Point-to-point semantics of the mpism runtime: matching, wildcards,
// non-overtaking, probes, request lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "support/run_helpers.hpp"

namespace dampi::test {
namespace {

using mpism::Bytes;
using mpism::kAnySource;
using mpism::kAnyTag;
using mpism::pack;
using mpism::PolicyKind;
using mpism::RequestId;
using mpism::Status;
using mpism::unpack;

TEST(Pt2Pt, BlockingSendRecvDeliversPayload) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 7, pack<int>(42));
    } else {
      Bytes data;
      Status st = p.recv(0, 7, &data);
      EXPECT_EQ(unpack<int>(data), 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, sizeof(int));
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

TEST(Pt2Pt, NonblockingRoundTrip) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      RequestId s = p.isend(1, 3, pack<double>(2.5));
      RequestId r = p.irecv(1, 4);
      p.wait(s);
      Bytes data;
      p.wait(r, &data);
      EXPECT_DOUBLE_EQ(unpack<double>(data), 2.5 * 2);
    } else {
      Bytes data;
      p.recv(0, 3, &data);
      p.send(0, 4, pack<double>(unpack<double>(data) * 2));
    }
  });
  EXPECT_TRUE(report.ok());
}

TEST(Pt2Pt, RecvBeforeSendBlocksThenCompletes) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 1) {
      Bytes data;
      p.recv(0, 9, &data);  // posted before the send exists
      EXPECT_EQ(unpack<int>(data), 5);
    } else {
      p.compute(100.0);
      p.send(1, 9, pack<int>(5));
    }
  });
  EXPECT_TRUE(report.ok());
}

// MPI non-overtaking: two same-signature messages from one sender must be
// received in send order, whichever order the receives are posted in.
TEST(Pt2Pt, NonOvertakingSameTag) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 5, pack<int>(1));
      p.send(1, 5, pack<int>(2));
    } else {
      Bytes a, b;
      p.recv(0, 5, &a);
      p.recv(0, 5, &b);
      EXPECT_EQ(unpack<int>(a), 1);
      EXPECT_EQ(unpack<int>(b), 2);
    }
  });
  EXPECT_TRUE(report.ok());
}

// Different tags are independent streams: a tag-selective receive may
// bypass an earlier message with another tag.
TEST(Pt2Pt, TagSelectionSkipsEarlierDifferentTag) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, pack<int>(11));
      p.send(1, 2, pack<int>(22));
    } else {
      p.barrier();
      Bytes b2, b1;
      p.recv(0, 2, &b2);
      p.recv(0, 1, &b1);
      EXPECT_EQ(unpack<int>(b2), 22);
      EXPECT_EQ(unpack<int>(b1), 11);
    }
    if (p.rank() == 0) p.barrier();
  });
  EXPECT_TRUE(report.ok());
}

TEST(Pt2Pt, AnyTagReceivesInSendOrder) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, pack<int>(11));
      p.send(1, 2, pack<int>(22));
      p.barrier();
    } else {
      p.barrier();  // both messages are queued now
      Bytes a, b;
      Status st1 = p.recv(0, kAnyTag, &a);
      Status st2 = p.recv(0, kAnyTag, &b);
      EXPECT_EQ(st1.tag, 1);
      EXPECT_EQ(st2.tag, 2);
      EXPECT_EQ(unpack<int>(a), 11);
      EXPECT_EQ(unpack<int>(b), 22);
    }
  });
  EXPECT_TRUE(report.ok());
}

// Wildcard receive with the lowest-source policy deterministically picks
// the smallest sender rank among queued candidates.
TEST(Pt2Pt, WildcardLowestSourcePolicy) {
  RunOptions opts;
  opts.nprocs = 4;
  opts.policy = PolicyKind::kLowestSource;
  auto report = run_program(opts, [](Proc& p) {
    if (p.rank() == 3) {
      p.barrier();  // all senders have sent
      for (int i = 0; i < 3; ++i) {
        Bytes data;
        Status st = p.recv(kAnySource, 5, &data);
        EXPECT_EQ(st.source, i);  // ascending source order
        EXPECT_EQ(unpack<int>(data), i * 10);
      }
    } else {
      p.send(3, 5, pack<int>(p.rank() * 10));
      p.barrier();
    }
  });
  EXPECT_TRUE(report.ok());
}

// Seeded random policy is reproducible: same seed -> same outcome order.
TEST(Pt2Pt, SeededRandomPolicyReproducible) {
  auto run_once = [](std::uint64_t seed) {
    std::vector<int> order;
    RunOptions opts;
    opts.nprocs = 4;
    opts.policy = PolicyKind::kSeededRandom;
    opts.policy_seed = seed;
    auto report = run_program(opts, [&order](Proc& p) {
      if (p.rank() == 3) {
        p.barrier();
        for (int i = 0; i < 3; ++i) {
          Status st = p.recv(kAnySource, 5);
          order.push_back(st.source);
        }
      } else {
        p.send(3, 5, pack<int>(0));
        p.barrier();
      }
    });
    EXPECT_TRUE(report.ok());
    return order;
  };
  const auto a = run_once(11);
  const auto b = run_once(11);
  EXPECT_EQ(a, b);
}

TEST(Pt2Pt, WaitallCompletesEverything) {
  auto report = run_program(3, [](Proc& p) {
    if (p.rank() == 0) {
      std::vector<RequestId> reqs;
      for (int i = 1; i < 3; ++i) {
        reqs.push_back(p.isend(i, 1, pack<int>(i)));
        reqs.push_back(p.irecv(i, 2));
      }
      p.waitall(reqs);
      for (RequestId r : reqs) EXPECT_EQ(r, mpism::kNullRequest);
    } else {
      Bytes data;
      p.recv(0, 1, &data);
      p.send(0, 2, pack<int>(unpack<int>(data) * 2));
    }
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.request_leaks, 0u);
}

TEST(Pt2Pt, WaitanyReturnsACompletedRequest) {
  auto report = run_program(3, [](Proc& p) {
    if (p.rank() == 0) {
      std::vector<RequestId> reqs;
      reqs.push_back(p.irecv(1, 1));
      reqs.push_back(p.irecv(2, 1));
      Bytes data;
      Status st;
      const std::size_t idx = p.waitany(reqs, &st, &data);
      EXPECT_LT(idx, 2u);
      EXPECT_EQ(reqs[idx], mpism::kNullRequest);
      p.waitall(reqs);  // consume the other one
    } else {
      p.send(0, 1, pack<int>(p.rank()));
    }
  });
  EXPECT_TRUE(report.ok());
}

TEST(Pt2Pt, TestPollsUntilComplete) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      RequestId r = p.irecv(1, 1);
      bool done = false;
      int polls = 0;
      Bytes data;
      while (!done) {
        done = p.test(r, nullptr, &data);
        ++polls;
        if (polls > 1000000) break;
      }
      EXPECT_TRUE(done);
      EXPECT_EQ(unpack<int>(data), 77);
    } else {
      p.send(0, 1, pack<int>(77));
    }
  });
  EXPECT_TRUE(report.ok());
}

TEST(Pt2Pt, ProbeReportsWithoutConsuming) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 6, pack<int>(99));
    } else {
      Status st = p.probe(0, 6);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 6);
      // The message is still there.
      Bytes data;
      Status st2 = p.recv(0, 6, &data);
      EXPECT_EQ(st2.msg_id, st.msg_id);
      EXPECT_EQ(unpack<int>(data), 99);
    }
  });
  EXPECT_TRUE(report.ok());
}

TEST(Pt2Pt, IprobeFalseWhenNothingQueued) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 1) {
      Status st;
      // Rank 0 only sends after receiving the go-signal, so nothing can
      // be queued yet.
      EXPECT_FALSE(p.iprobe(0, 6, &st));
      p.send(0, 1, pack<int>(0));  // go
      p.recv(0, 2);                // rank 0 confirms the send happened
      EXPECT_TRUE(p.iprobe(0, 6, &st));
      EXPECT_EQ(st.source, 0);
      p.recv(0, 6);
    } else {
      p.recv(1, 1);
      p.send(1, 6, pack<int>(1));
      p.send(1, 2, pack<int>(0));
    }
  });
  EXPECT_TRUE(report.ok());
}

TEST(Pt2Pt, WildcardProbeSeesAnySender) {
  auto report = run_program(3, [](Proc& p) {
    if (p.rank() == 2) {
      Status st = p.probe(kAnySource, kAnyTag);
      EXPECT_TRUE(st.source == 0 || st.source == 1);
      p.recv(st.source, st.tag);
      p.recv(kAnySource, kAnyTag);
    } else {
      p.send(2, p.rank() + 10, pack<int>(p.rank()));
    }
  });
  EXPECT_TRUE(report.ok());
}

TEST(Pt2Pt, SendToSelfWorks) {
  auto report = run_program(1, [](Proc& p) {
    p.send(0, 1, pack<int>(8));
    Bytes data;
    p.recv(0, 1, &data);
    EXPECT_EQ(unpack<int>(data), 8);
  });
  EXPECT_TRUE(report.ok());
}

TEST(Pt2Pt, UnwaitedRequestIsALeak) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.isend(1, 1, pack<int>(1));  // never waited
    } else {
      p.recv(0, 1);
    }
  });
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.request_leaks, 1u);
}

TEST(Pt2Pt, ErrorsSurfaceInReport) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 1) p.fail("intentional failure");
    // rank 0 idles; the abort tears it down if it blocks
    if (p.rank() == 0) p.recv(1, 1);
  });
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].rank, 1);
  EXPECT_NE(report.errors[0].message.find("intentional"), std::string::npos);
}

TEST(Pt2Pt, InvalidDestinationIsAProgramError) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) p.send(5, 1, pack<int>(1));
  });
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors[0].message.find("invalid rank"), std::string::npos);
}

TEST(Pt2Pt, NegativeTagOnSendIsAProgramError) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) p.send(1, -3, pack<int>(1));
  });
  EXPECT_FALSE(report.ok());
}

TEST(Pt2Pt, WaitOnConsumedRequestIsAProgramError) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      RequestId s = p.isend(1, 1, pack<int>(1));
      p.wait(s);
      p.wait(s);  // double consume
    } else {
      p.recv(0, 1);
    }
  });
  EXPECT_FALSE(report.ok());
}

// Request slots are reused: a consumed handle must still miss once a
// newer request occupies its slot, and must not complete that request.
TEST(Pt2Pt, WaitOnConsumedHandleWhoseSlotWasReusedIsAProgramError) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      const RequestId first = p.isend(1, 1, pack<int>(1));
      p.wait(first);
      const RequestId second = p.isend(1, 2, pack<int>(2));
      EXPECT_NE(second, first);
      p.wait(first);  // stale: its slot now holds `second`
    } else {
      p.recv(0, 1);
      p.recv(0, 2);
    }
  });
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].rank, 0);
  EXPECT_EQ(report.errors[0].message, "wait on invalid or consumed request");
}

// Message volume accounting feeds the Table I harness.
TEST(Pt2Pt, OpStatsCountCategories) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      RequestId s = p.isend(1, 1, pack<int>(1));  // 1 send-recv
      p.wait(s);                                  // 1 wait
    } else {
      RequestId r = p.irecv(0, 1);  // 1 send-recv
      p.wait(r);                    // 1 wait
    }
    p.barrier();  // 1 collective each
  });
  EXPECT_TRUE(report.ok());
  using mpism::OpCategory;
  EXPECT_EQ(report.stats.total(OpCategory::kSendRecv), 2u);
  EXPECT_EQ(report.stats.total(OpCategory::kWait), 2u);
  EXPECT_EQ(report.stats.total(OpCategory::kCollective), 2u);
  EXPECT_EQ(report.messages_sent, 1u);
}

// Virtual time: a receiver of a chain of messages accumulates at least
// the sum of latencies; compute() advances time.
TEST(Pt2Pt, VirtualTimeAdvances) {
  RunOptions opts;
  opts.nprocs = 2;
  auto report = run_program(opts, [](Proc& p) {
    if (p.rank() == 0) {
      p.compute(1000.0);
      p.send(1, 1, pack<int>(1));
    } else {
      p.recv(0, 1);
    }
  });
  EXPECT_TRUE(report.ok());
  // Receiver completed after sender's compute + latency.
  EXPECT_GT(report.vtime_us, 1000.0);
}

// Stress: many messages through the same channel preserve FIFO order.
class Pt2PtVolumeTest : public ::testing::TestWithParam<int> {};

TEST_P(Pt2PtVolumeTest, ManyMessagesInOrder) {
  const int count = GetParam();
  auto report = run_program(2, [count](Proc& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < count; ++i) p.send(1, 4, pack<int>(i));
    } else {
      for (int i = 0; i < count; ++i) {
        Bytes data;
        p.recv(kAnySource, 4, &data);
        EXPECT_EQ(unpack<int>(data), i);
      }
    }
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.messages_sent, static_cast<std::uint64_t>(count));
}

INSTANTIATE_TEST_SUITE_P(Volumes, Pt2PtVolumeTest,
                         ::testing::Values(1, 16, 256, 2048));

}  // namespace
}  // namespace dampi::test
