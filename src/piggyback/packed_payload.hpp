// Payload-packing piggyback: the clock is prepended to each message's
// payload and stripped at the receiver. The ablation alternative to the
// separate-message mechanism: no extra messages, but every payload is
// copied/resized and probed sizes over-report (probes cannot strip the
// prefix because they do not consume the message) — the trade-offs the
// piggyback paper [15] reports.
#pragma once

#include "piggyback/transport.hpp"

namespace dampi::piggyback {

class PackedPayloadTransport final : public Transport {
 public:
  void on_pre_send(mpism::ToolCtx& ctx, mpism::SendCall& call,
                   const mpism::Bytes& clock) override;
  const mpism::Bytes& on_recv_complete(mpism::ToolCtx& ctx,
                                       mpism::ReqCompletion& c) override;

 private:
  mpism::Bytes clock_;  ///< the last stripped clock (capacity reused)
};

}  // namespace dampi::piggyback
