// Telepathic transport: clocks move with no messages and no virtual-time
// cost. The engine carries each clock on its payload's envelope, uncharged
// (mpism::SendCall::carry). Two uses:
//  - modelling ISP's centralized scheduler, which observes every send and
//    receive directly and therefore needs no piggyback protocol;
//  - a zero-interference oracle in tests (no extra traffic, no shadow
//    communicators) against which the real transports are validated.
#pragma once

#include "piggyback/transport.hpp"

namespace dampi::piggyback {

class TelepathicTransport final : public Transport {
 public:
  void on_pre_send(mpism::ToolCtx&, mpism::SendCall& call,
                   const mpism::Bytes& clock) override {
    call.carry = &clock;
  }

  const mpism::Bytes& on_recv_complete(mpism::ToolCtx&,
                                       mpism::ReqCompletion& c) override {
    return c.carried->clock;
  }
};

}  // namespace dampi::piggyback
