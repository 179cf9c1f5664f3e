// The PnMPI-style tool stack: hook coverage, argument rewriting, raw
// operations, collective piggyback routing, and cost accounting — the
// substrate contract DAMPI's layers rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "support/run_helpers.hpp"

namespace dampi::test {
namespace {

using mpism::Bytes;
using mpism::CollCall;
using mpism::CollKind;
using mpism::CollResult;
using mpism::CommId;
using mpism::kAnySource;
using mpism::kCommWorld;
using mpism::pack;
using mpism::ProbeCall;
using mpism::RecvCall;
using mpism::ReqCompletion;
using mpism::ReqKind;
using mpism::RequestId;
using mpism::SendCall;
using mpism::SendInfo;
using mpism::Status;
using mpism::ToolCtx;
using mpism::ToolLayer;
using mpism::ToolSetup;
using mpism::unpack;

/// Records every hook invocation into a shared, mutex-guarded journal.
struct Journal {
  std::mutex mu;
  std::vector<std::string> events;
  void add(std::string e) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(std::move(e));
  }
  bool contains(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& e : events) {
      if (e == needle) return true;
    }
    return false;
  }
};

class RecordingLayer final : public ToolLayer {
 public:
  RecordingLayer(std::shared_ptr<Journal> journal, int rank,
                 const std::string& name)
      : journal_(std::move(journal)), rank_(rank), name_(name) {}

  void on_init(ToolCtx&) override { note("init"); }
  void on_finalize(ToolCtx&) override { note("finalize"); }
  void pre_isend(ToolCtx&, SendCall&) override { note("pre_isend"); }
  void post_isend(ToolCtx&, const SendCall&, RequestId,
                  const SendInfo&) override {
    note("post_isend");
  }
  void pre_irecv(ToolCtx&, RecvCall&) override { note("pre_irecv"); }
  void post_irecv(ToolCtx&, const RecvCall&, RequestId) override {
    note("post_irecv");
  }
  void post_wait(ToolCtx&, ReqCompletion& c) override {
    note(c.kind == ReqKind::kRecv ? "post_wait_recv" : "post_wait_send");
  }
  void pre_collective(ToolCtx&, CollCall& call) override {
    note(std::string("pre_coll_") + mpism::coll_kind_name(call.kind));
  }
  void post_collective(ToolCtx&, const CollCall& call,
                       const CollResult&) override {
    note(std::string("post_coll_") + mpism::coll_kind_name(call.kind));
  }
  void on_pcontrol(ToolCtx&, int level, const std::string& what) override {
    note("pcontrol_" + std::to_string(level) + "_" + what);
  }

 private:
  void note(const std::string& what) {
    journal_->add(name_ + ":" + std::to_string(rank_) + ":" + what);
  }
  std::shared_ptr<Journal> journal_;
  int rank_;
  std::string name_;
};

ToolSetup recording_setup(std::shared_ptr<Journal> journal) {
  ToolSetup setup;
  setup.make_stack = [journal](int rank, int) {
    std::vector<std::unique_ptr<ToolLayer>> stack;
    stack.push_back(std::make_unique<RecordingLayer>(journal, rank, "L"));
    return stack;
  };
  return setup;
}

TEST(Tools, AllHooksFire) {
  auto journal = std::make_shared<Journal>();
  RunOptions opts;
  opts.nprocs = 2;
  opts.tools = recording_setup(journal);
  auto report = run_program(opts, [](Proc& p) {
    if (p.rank() == 0) {
      RequestId s = p.isend(1, 1, pack<int>(1));
      p.wait(s);
    } else {
      RequestId r = p.irecv(0, 1);
      p.wait(r);
    }
    p.barrier();
    p.pcontrol(1, "loop");
  });
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(journal->contains("L:0:init"));
  EXPECT_TRUE(journal->contains("L:0:pre_isend"));
  EXPECT_TRUE(journal->contains("L:0:post_isend"));
  EXPECT_TRUE(journal->contains("L:0:post_wait_send"));
  EXPECT_TRUE(journal->contains("L:1:pre_irecv"));
  EXPECT_TRUE(journal->contains("L:1:post_irecv"));
  EXPECT_TRUE(journal->contains("L:1:post_wait_recv"));
  EXPECT_TRUE(journal->contains("L:1:pre_coll_barrier"));
  EXPECT_TRUE(journal->contains("L:1:post_coll_barrier"));
  EXPECT_TRUE(journal->contains("L:0:pcontrol_1_loop"));
  EXPECT_TRUE(journal->contains("L:0:finalize"));
}

/// A layer that determinizes every wildcard receive to a fixed source —
/// the exact mechanism of DAMPI's GUIDED_RUN.
class ForceSourceLayer final : public ToolLayer {
 public:
  explicit ForceSourceLayer(int forced) : forced_(forced) {}
  void pre_irecv(ToolCtx&, RecvCall& call) override {
    if (call.src == kAnySource && !used_) {
      call.src = forced_;
      used_ = true;  // only the first epoch is guided; the rest self-run
    }
  }

 private:
  int forced_;
  bool used_ = false;
};

TEST(Tools, RewritingWildcardSourceForcesTheMatch) {
  // Without the layer, lowest-source policy would pick rank 0; the layer
  // forces rank 2 — exactly how a replay enforces an alternate match.
  ToolSetup setup;
  setup.make_stack = [](int rank, int) {
    std::vector<std::unique_ptr<ToolLayer>> stack;
    if (rank == 3) stack.push_back(std::make_unique<ForceSourceLayer>(2));
    return stack;
  };
  RunOptions opts;
  opts.nprocs = 4;
  opts.tools = setup;
  auto report = run_program(opts, [](Proc& p) {
    if (p.rank() == 3) {
      p.barrier();
      Status st = p.recv(kAnySource, 1);
      EXPECT_EQ(st.source, 2);
      p.recv(kAnySource, 1);
      p.recv(kAnySource, 1);
    } else {
      p.send(3, 1, pack<int>(p.rank()));
      p.barrier();
    }
  });
  EXPECT_TRUE(report.ok());
}

/// A miniature of the separate-message piggyback: every user send on the
/// world communicator carries a tool value on its envelope, charged as a
/// message of its own, and the receiver reads it when the payload
/// completes.
class CarryEchoLayer final : public ToolLayer {
 public:
  void pre_isend(ToolCtx&, SendCall& call) override {
    if (call.comm != kCommWorld) return;
    value_ = pack<std::uint64_t>(1000 + sent_++);
    call.carry = &value_;
    call.carry_charged = true;
  }
  void post_wait(ToolCtx& ctx, ReqCompletion& c) override {
    if (c.kind != ReqKind::kRecv || c.comm != kCommWorld) return;
    ctx.charge_arrival(c.carried->arrival_vtime);
    last_pb = unpack<std::uint64_t>(c.carried->clock);
  }
  std::uint64_t last_pb = 0;

 private:
  Bytes value_;
  std::uint64_t sent_ = 0;
};

TEST(Tools, CarriedToolDataArrivesWithItsPayload) {
  auto values = std::make_shared<std::mutex>();
  auto seen = std::make_shared<std::vector<std::uint64_t>>();
  ToolSetup setup;
  setup.make_stack = [values, seen](int, int) {
    std::vector<std::unique_ptr<ToolLayer>> stack;
    struct Checker final : ToolLayer {
      Checker(std::shared_ptr<std::mutex> mu,
              std::shared_ptr<std::vector<std::uint64_t>> out)
          : mu_(std::move(mu)), out_(std::move(out)) {}
      CarryEchoLayer inner;
      void pre_isend(ToolCtx& ctx, SendCall& c) override {
        inner.pre_isend(ctx, c);
      }
      void post_wait(ToolCtx& ctx, ReqCompletion& c) override {
        inner.post_wait(ctx, c);
        if (c.kind == ReqKind::kRecv) {
          std::lock_guard<std::mutex> lock(*mu_);
          out_->push_back(inner.last_pb);
        }
      }
      std::shared_ptr<std::mutex> mu_;
      std::shared_ptr<std::vector<std::uint64_t>> out_;
    };
    stack.push_back(std::make_unique<Checker>(values, seen));
    return stack;
  };
  RunOptions opts;
  opts.nprocs = 2;
  opts.tools = setup;
  auto report = run_program(opts, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, pack<int>(42));
      p.send(1, 1, pack<int>(43));
    } else {
      p.recv(0, 1);
      p.recv(0, 1);
    }
  });
  EXPECT_TRUE(report.ok());
  // Sends 0 and 1 -> carried values 1000, 1001, in order.
  ASSERT_EQ(seen->size(), 2u);
  EXPECT_EQ((*seen)[0], 1000u);
  EXPECT_EQ((*seen)[1], 1001u);
  EXPECT_EQ(report.stats.tool_messages, 2u);
}

/// Collective piggyback routing: each rank contributes its rank value;
/// the merge function is max. Checks the paper's per-collective clock
/// update directions.
class CollPbLayer final : public ToolLayer {
 public:
  explicit CollPbLayer(std::shared_ptr<Journal> journal)
      : journal_(std::move(journal)) {}
  void pre_collective(ToolCtx& ctx, CollCall& call) override {
    call.pb_contribution =
        pack<std::uint64_t>(static_cast<std::uint64_t>(ctx.world_rank() + 1));
  }
  void post_collective(ToolCtx& ctx, const CollCall& call,
                       const CollResult& result) override {
    std::string what = std::string(mpism::coll_kind_name(call.kind)) + ":" +
                       std::to_string(ctx.world_rank()) + ":";
    what += result.has_incoming
                ? std::to_string(unpack<std::uint64_t>(result.incoming))
                : std::string("none");
    journal_->add(what);
  }

 private:
  std::shared_ptr<Journal> journal_;
};

TEST(Tools, CollectivePiggybackRouting) {
  auto journal = std::make_shared<Journal>();
  ToolSetup setup;
  setup.make_stack = [journal](int, int) {
    std::vector<std::unique_ptr<ToolLayer>> stack;
    stack.push_back(std::make_unique<CollPbLayer>(journal));
    return stack;
  };
  setup.coll_merge = [](const std::vector<Bytes>& contribs) {
    std::uint64_t best = 0;
    for (const Bytes& b : contribs) {
      best = std::max(best, unpack<std::uint64_t>(b));
    }
    return pack(best);
  };
  RunOptions opts;
  opts.nprocs = 3;
  opts.tools = setup;
  auto report = run_program(opts, [](Proc& p) {
    p.barrier();  // all-style: everyone merges max = 3
    Bytes b;
    if (p.rank() == 1) b = pack<int>(5);
    p.bcast(&b, 1);  // root 1: leaves get root's contribution (2)
    p.reduce(pack<std::uint64_t>(1), mpism::ReduceOp::kSumU64,
             /*root=*/2);  // root 2 merges all (3); leaves get none
  });
  EXPECT_TRUE(report.ok());
  // Barrier: every rank sees the max contribution 3.
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(journal->contains("barrier:" + std::to_string(r) + ":3"));
  }
  // Bcast from root 1: leaves see root's value (2), root sees none.
  EXPECT_TRUE(journal->contains("bcast:0:2"));
  EXPECT_TRUE(journal->contains("bcast:2:2"));
  EXPECT_TRUE(journal->contains("bcast:1:none"));
  // Reduce at root 2: root merges max (3), leaves see none.
  EXPECT_TRUE(journal->contains("reduce:2:3"));
  EXPECT_TRUE(journal->contains("reduce:0:none"));
  EXPECT_TRUE(journal->contains("reduce:1:none"));
}

/// Layer cost accounting feeds the overhead benchmarks.
class CostLayer final : public ToolLayer {
 public:
  void pre_isend(ToolCtx& ctx, SendCall&) override { ctx.add_cost(500.0); }
};

TEST(Tools, AddCostInflatesVirtualTime) {
  auto run_with = [](bool with_tool) {
    RunOptions opts;
    opts.nprocs = 2;
    if (with_tool) {
      opts.tools.make_stack = [](int, int) {
        std::vector<std::unique_ptr<ToolLayer>> stack;
        stack.push_back(std::make_unique<CostLayer>());
        return stack;
      };
    }
    return run_program(opts, [](Proc& p) {
      if (p.rank() == 0) {
        for (int i = 0; i < 10; ++i) p.send(1, 1, pack<int>(i));
      } else {
        for (int i = 0; i < 10; ++i) p.recv(0, 1);
      }
    });
  };
  const auto native = run_with(false);
  const auto tooled = run_with(true);
  EXPECT_TRUE(native.ok());
  EXPECT_TRUE(tooled.ok());
  EXPECT_GT(tooled.vtime_us, native.vtime_us + 10 * 500.0 - 1.0);
}

/// Charged carried clocks and shadow communicators are excluded from user
/// stats and leak accounting.
TEST(Tools, ToolTrafficDoesNotPolluteUserAccounting) {
  ToolSetup setup;
  setup.make_stack = [](int, int) {
    struct NoisyLayer final : ToolLayer {
      Bytes pb = pack<int>(0);
      void on_init(ToolCtx& ctx) override { ctx.raw_comm_dup(kCommWorld); }
      void pre_isend(ToolCtx&, SendCall& call) override {
        call.carry = &pb;
        call.carry_charged = true;
      }
      void post_wait(ToolCtx& ctx, ReqCompletion& c) override {
        if (c.kind == ReqKind::kRecv) {
          ctx.charge_arrival(c.carried->arrival_vtime);
        }
      }
    };
    std::vector<std::unique_ptr<ToolLayer>> stack;
    stack.push_back(std::make_unique<NoisyLayer>());
    return stack;
  };
  RunOptions opts;
  opts.nprocs = 2;
  opts.tools = setup;
  auto report = run_program(opts, [](Proc& p) {
    if (p.rank() == 0) {
      p.send(1, 1, pack<int>(1));
    } else {
      p.recv(0, 1);
    }
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.messages_sent, 1u);        // user payload only
  EXPECT_GT(report.stats.tool_messages, 0u);  // pb traffic counted apart
  EXPECT_EQ(report.comm_leaks, 0);            // shadow comm exempt
  EXPECT_EQ(report.request_leaks, 0u);
  EXPECT_EQ(report.stats.total(mpism::OpCategory::kSendRecv), 2u);
}

}  // namespace
}  // namespace dampi::test
