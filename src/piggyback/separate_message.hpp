// The paper's chosen mechanism: every payload message m is accompanied by
// a piggyback message mp carrying the sender's clock, sent on a *shadow
// communicator* duplicated from the payload's communicator (§II-D).
//
// Pairing: the paper relies on posting the pb receive after m completes
// (so the source is known) and on channel FIFO order. This implementation
// strengthens the pairing by tagging mp with m's per-channel sequence
// number, which makes the association exact even when the receiver waits
// its requests out of post order — a hazard the order-based scheme has.
#pragma once

#include <vector>

#include "piggyback/transport.hpp"

namespace dampi::piggyback {

class SeparateMessageTransport final : public Transport {
 public:
  void on_init(mpism::ToolCtx& ctx) override;
  void on_post_send(mpism::ToolCtx& ctx, const mpism::SendCall& call,
                    const mpism::SendInfo& info,
                    const mpism::Bytes& clock) override;
  const mpism::Bytes& on_recv_complete(mpism::ToolCtx& ctx,
                                       mpism::ReqCompletion& c) override;
  void on_new_comm(mpism::ToolCtx& ctx, mpism::CommId comm) override;
  void reset() override { shadow_.clear(); }

 private:
  mpism::CommId shadow_of(mpism::CommId comm) const;

  /// Indexed by payload comm id: its shadow comm, or kCommNull.
  std::vector<mpism::CommId> shadow_;
  /// The last received piggyback (its capacity is reused).
  mpism::Bytes clock_;
};

}  // namespace dampi::piggyback
