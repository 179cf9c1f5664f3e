// The paper's chosen mechanism: every payload message m is accompanied by
// a piggyback message mp carrying the sender's clock, sent on a *shadow
// communicator* duplicated from the payload's communicator (§II-D).
//
// The model charges mp as the real tool pays for it — the send at the
// sender, a message id and a tool message, the receive at the receiver
// once mp has arrived — but the engine carries the clock on m's own
// envelope (mpism::SendCall::carry) instead of routing mp through the
// matcher. So the pairing of mp with m, which the paper gets from
// posting the pb receive after m completes and from channel FIFO order,
// is exact by construction, even when the receiver waits its requests
// out of post order.
#pragma once

#include "piggyback/transport.hpp"

namespace dampi::piggyback {

class SeparateMessageTransport final : public Transport {
 public:
  void on_init(mpism::ToolCtx& ctx) override;
  void on_pre_send(mpism::ToolCtx& ctx, mpism::SendCall& call,
                   const mpism::Bytes& clock) override;
  const mpism::Bytes& on_recv_complete(mpism::ToolCtx& ctx,
                                       mpism::ReqCompletion& c) override;
  void on_new_comm(mpism::ToolCtx& ctx, mpism::CommId comm) override;
};

}  // namespace dampi::piggyback
