// ISP's centralized scheduler, modelled structurally.
//
// In ISP every MPI call performs a synchronous exchange with one central
// scheduler over Unix/TCP sockets (paper §II-A). The model: the scheduler
// is a single server with its own virtual timeline; a call arrives at
// (rank_time + socket latency), is serviced after the scheduler finishes
// everything before it, and the reply lands at (service completion +
// socket latency). Contention is therefore *emergent* — as ranks×calls
// grow, the single timeline saturates and per-call waiting explodes,
// which is exactly the Fig. 5 behaviour the paper attributes to ISP.
//
// Wildcard operations cost extra service: ISP's scheduler rewrites them
// after computing the match set centrally.
#pragma once

#include <memory>
#include <mutex>

#include "mpism/tool.hpp"

namespace dampi::isp {

/// One-way socket latency between an MPI process and the scheduler.
inline constexpr double kSockLatencyUs = 10.0;
/// Scheduler service time per intercepted call.
inline constexpr double kSchedulerServiceUs = 3.0;
/// Additional stall for non-deterministic operations: ISP delays each
/// wildcard until the scheduler has discovered the full set of potential
/// senders before rewriting it ("ISP must delay non-deterministic
/// outcomes even at small scales, which leads to long testing times",
/// §I) — a quiescence wait, not a socket hop.
inline constexpr double kWildcardServiceUs = 3000.0;

/// The scheduler's serialized virtual timeline. One per run, shared by
/// every rank's IspCostLayer.
class SchedulerSim {
 public:
  /// A request arriving at `arrival_vtime` is serviced for `service_us`
  /// after everything already queued; returns its completion time.
  double transact(double arrival_vtime, double service_us) {
    std::lock_guard<std::mutex> lock(mu_);
    if (arrival_vtime > busy_until_) busy_until_ = arrival_vtime;
    busy_until_ += service_us;
    ++transactions_;
    return busy_until_;
  }

  std::uint64_t transactions() const { return transactions_; }

 private:
  std::mutex mu_;
  double busy_until_ = 0.0;
  std::uint64_t transactions_ = 0;
};

/// Charges every intercepted user call with a scheduler round trip.
class IspCostLayer final : public mpism::ToolLayer {
 public:
  explicit IspCostLayer(std::shared_ptr<SchedulerSim> sim)
      : sim_(std::move(sim)) {}

  void pre_isend(mpism::ToolCtx& ctx, mpism::SendCall&) override {
    charge(ctx, kSchedulerServiceUs);
  }
  void pre_irecv(mpism::ToolCtx& ctx, mpism::RecvCall& call) override {
    charge(ctx, call.src == mpism::kAnySource
                    ? kSchedulerServiceUs + kWildcardServiceUs
                    : kSchedulerServiceUs);
  }
  void pre_wait(mpism::ToolCtx& ctx, mpism::RequestId) override {
    charge(ctx, kSchedulerServiceUs);
  }
  void pre_probe(mpism::ToolCtx& ctx, mpism::ProbeCall& call) override {
    charge(ctx, call.src == mpism::kAnySource
                    ? kSchedulerServiceUs + kWildcardServiceUs
                    : kSchedulerServiceUs);
  }
  void pre_collective(mpism::ToolCtx& ctx, mpism::CollCall&) override {
    charge(ctx, kSchedulerServiceUs);
  }

 private:
  void charge(mpism::ToolCtx& ctx, double service_us) {
    const double now = ctx.vtime();
    const double done = sim_->transact(now + kSockLatencyUs, service_us);
    ctx.add_cost(done + kSockLatencyUs - now);
  }

  std::shared_ptr<SchedulerSim> sim_;
};

}  // namespace dampi::isp
