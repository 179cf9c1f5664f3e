// Synchronous (rendezvous) sends, sendrecv, and testall/testany — the
// send-mode surface that separates buffering-dependent deadlocks from
// eager-safe code.
#include <gtest/gtest.h>

#include "support/run_helpers.hpp"
#include "support/verify_helpers.hpp"

namespace dampi::test {
namespace {

using mpism::Bytes;
using mpism::kAnySource;
using mpism::pack;
using mpism::RequestId;
using mpism::Status;
using mpism::unpack;

TEST(Ssend, CompletesAgainstPostedReceive) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.ssend(1, 1, pack<int>(5));
    } else {
      Bytes data;
      p.recv(0, 1, &data);
      EXPECT_EQ(unpack<int>(data), 5);
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

TEST(Ssend, CompletesAgainstLaterReceive) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      p.ssend(1, 1, pack<int>(7));  // receiver arrives later
    } else {
      p.compute(500.0);
      p.recv(0, 1);
    }
  });
  EXPECT_TRUE(report.ok());
}

// The classic buffering-dependent deadlock: head-to-head blocking sends
// are safe when eager (buffered) but deadlock under rendezvous.
TEST(Ssend, HeadToHeadSynchronousSendsDeadlock) {
  auto report = run_program(2, [](Proc& p) {
    const int other = 1 - p.rank();
    p.ssend(other, 1, pack<int>(p.rank()));
    p.recv(other, 1);
  });
  EXPECT_TRUE(report.deadlocked);
  EXPECT_NE(report.deadlock_detail.find("ssend"), std::string::npos);
}

TEST(Ssend, HeadToHeadEagerSendsStillComplete) {
  auto report = run_program(2, [](Proc& p) {
    const int other = 1 - p.rank();
    p.send(other, 1, pack<int>(p.rank()));
    p.recv(other, 1);
  });
  EXPECT_TRUE(report.ok());
}

TEST(Ssend, IssendNonblockingOverlap) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      RequestId s = p.issend(1, 1, pack<int>(9));
      // The request is incomplete until rank 1 posts its receive.
      EXPECT_FALSE(p.test(s));
      p.send(1, 2, pack<int>(0));  // tell rank 1 to go ahead
      p.wait(s);
    } else {
      p.recv(0, 2);
      p.recv(0, 1);
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

TEST(Ssend, WildcardReceiveReleasesSynchronousSender) {
  auto report = run_program(3, [](Proc& p) {
    if (p.rank() == 2) {
      p.recv(kAnySource, 1);
      p.recv(kAnySource, 1);
    } else {
      p.ssend(2, 1, pack<int>(p.rank()));
    }
  });
  EXPECT_TRUE(report.ok());
}

TEST(Ssend, ProbeDoesNotReleaseSynchronousSender) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      RequestId s = p.issend(1, 1, pack<int>(3));
      p.recv(1, 2);  // rank 1 confirms it probed
      EXPECT_FALSE(p.test(s));  // probe alone must not complete the ssend
      p.send(1, 3, pack<int>(0));  // now rank 1 may actually receive
      p.wait(s);
    } else {
      p.probe(0, 1);
      p.send(0, 2, pack<int>(0));
      p.recv(0, 3);
      p.recv(0, 1);
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

// A wildcard-dependent *buffering* deadlock: the bug appears only when
// the wildcard matches the synchronous sender's competitor — exactly the
// class DAMPI's replay must expose.
TEST(Ssend, WildcardDependentSsendDeadlockFoundByVerifier) {
  const auto program = [](Proc& p) {
    constexpr mpism::Tag t = 1;
    switch (p.rank()) {
      case 0:
        p.send(1, t, pack<int>(0));
        break;
      case 1: {
        const Status st = p.recv(kAnySource, t);
        if (st.source == 2) {
          // This branch issues a synchronous send nobody will receive
          // until rank 0's message is drained... which never happens.
          p.ssend(2, 9, pack<int>(1));
        }
        p.recv(kAnySource, t);  // drain the other sender
        break;
      }
      case 2:
        p.send(1, t, pack<int>(2));
        break;
      default:
        break;
    }
  };
  core::ExplorerOptions options = explorer_options(3);
  core::Explorer explorer(options);
  const auto result = explorer.explore(program);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.bugs.back().kind, core::BugRecord::Kind::kDeadlock);
}

TEST(SendRecv, PairsWithoutDeadlock) {
  auto report = run_program(4, [](Proc& p) {
    const int next = (p.rank() + 1) % p.size();
    const int prev = (p.rank() + p.size() - 1) % p.size();
    Bytes data;
    const Status st =
        p.sendrecv(next, 1, pack<int>(p.rank()), prev, 1, &data);
    EXPECT_EQ(st.source, prev);
    EXPECT_EQ(unpack<int>(data), prev);
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

TEST(TestAll, ConsumesAllOrNothing) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      std::vector<RequestId> reqs = {p.irecv(1, 1), p.irecv(1, 2)};
      // Only the tag-1 message is sent initially: testall must fail and
      // consume nothing.
      p.recv(1, 3);  // rank 1 has sent tag 1 by now
      EXPECT_FALSE(p.testall(reqs));
      EXPECT_NE(reqs[0], mpism::kNullRequest);
      EXPECT_NE(reqs[1], mpism::kNullRequest);
      p.send(1, 4, pack<int>(0));  // ask for the second message
      p.recv(1, 5);
      EXPECT_TRUE(p.testall(reqs));
      EXPECT_EQ(reqs[0], mpism::kNullRequest);
      EXPECT_EQ(reqs[1], mpism::kNullRequest);
    } else {
      p.send(0, 1, pack<int>(1));
      p.send(0, 3, pack<int>(0));
      p.recv(0, 4);
      p.send(0, 2, pack<int>(2));
      p.send(0, 5, pack<int>(0));
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
  EXPECT_EQ(report.request_leaks, 0u);
}

TEST(TestAny, ReturnsLowestReadyIndex) {
  auto report = run_program(2, [](Proc& p) {
    if (p.rank() == 0) {
      std::vector<RequestId> reqs = {p.irecv(1, 1), p.irecv(1, 2)};
      EXPECT_EQ(p.testany(reqs), reqs.size());  // nothing ready yet
      p.send(1, 5, pack<int>(0));               // "go": rank 1 may send
      p.recv(1, 3);                             // tag-2 sent, then tag-3
      Bytes data;
      Status st;
      const std::size_t idx = p.testany(reqs, &st, &data);
      EXPECT_EQ(idx, 1u);  // tag 2 arrived; tag 1 never sent yet
      EXPECT_EQ(st.tag, 2);
      p.send(1, 4, pack<int>(0));
      p.waitall(reqs);
    } else {
      // Wait for "go" so no send can race rank 0's first testany.
      p.recv(0, 5);
      p.send(0, 2, pack<int>(2));
      p.send(0, 3, pack<int>(0));
      p.recv(0, 4);
      p.send(0, 1, pack<int>(1));
    }
  });
  EXPECT_TRUE(report.ok()) << report.deadlock_detail;
}

// Piggybacking and epoch analysis work identically for synchronous
// sends: a late ssend is a potential match.
TEST(Ssend, LateSynchronousSendIsAPotentialMatch) {
  core::ExplorerOptions options = explorer_options(3);
  auto result = run_dampi_once(options, {}, [](Proc& p) {
    constexpr mpism::Tag t = 0;
    if (p.rank() == 0) {
      p.ssend(1, t, pack<int>(22));
    } else if (p.rank() == 2) {
      p.ssend(1, t, pack<int>(33));
    } else {
      p.recv(kAnySource, t);
      p.recv(kAnySource, t);
    }
  });
  ASSERT_TRUE(result.report.completed);
  const auto* epoch = find_epoch(result.trace, 1, 0);
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->alternatives.size(), 1u);
}

}  // namespace
}  // namespace dampi::test
