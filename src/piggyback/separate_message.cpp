#include "piggyback/separate_message.hpp"

namespace dampi::piggyback {

void SeparateMessageTransport::on_init(mpism::ToolCtx& ctx) {
  on_new_comm(ctx, mpism::kCommWorld);
}

void SeparateMessageTransport::on_pre_send(mpism::ToolCtx&,
                                           mpism::SendCall& call,
                                           const mpism::Bytes& clock) {
  // mp would travel on the payload communicator's shadow; its clock rides
  // m's envelope instead, charged as mp.
  call.carry = &clock;
  call.carry_charged = true;
}

const mpism::Bytes& SeparateMessageTransport::on_recv_complete(
    mpism::ToolCtx& ctx, mpism::ReqCompletion& c) {
  // The receive of mp on the shadow communicator, once it has arrived.
  ctx.charge_arrival(c.carried->arrival_vtime);
  return c.carried->clock;
}

void SeparateMessageTransport::on_new_comm(mpism::ToolCtx& ctx,
                                           mpism::CommId comm) {
  // No message travels on the shadow communicators, but the real tool
  // pays for their dups (collectives over the payload communicator), and
  // Table II's virtual times include them.
  ctx.raw_comm_dup(comm);
}

}  // namespace dampi::piggyback
