#include "piggyback/separate_message.hpp"

#include "common/check.hpp"

namespace dampi::piggyback {
namespace {

/// The pb message reuses the payload's channel sequence number as its
/// tag, folded into the user tag range.
mpism::Tag pb_tag(std::uint64_t seq) {
  return static_cast<mpism::Tag>(seq % (1u << 29));
}

}  // namespace

void SeparateMessageTransport::on_init(mpism::ToolCtx& ctx) {
  on_new_comm(ctx, mpism::kCommWorld);
}

mpism::CommId SeparateMessageTransport::shadow_of(mpism::CommId comm) const {
  const auto i = static_cast<std::size_t>(comm);
  DAMPI_CHECK_MSG(i < shadow_.size() && shadow_[i] != mpism::kCommNull,
                  "no shadow communicator for payload communicator");
  return shadow_[i];
}

void SeparateMessageTransport::on_post_send(mpism::ToolCtx& ctx,
                                            const mpism::SendCall& call,
                                            const mpism::SendInfo& info,
                                            const mpism::Bytes& clock) {
  ctx.raw_isend(call.dst, pb_tag(info.seq), shadow_of(call.comm), clock);
}

const mpism::Bytes& SeparateMessageTransport::on_recv_complete(
    mpism::ToolCtx& ctx, mpism::ReqCompletion& c) {
  ctx.raw_recv(c.status.source, pb_tag(c.seq), shadow_of(c.comm), &clock_);
  return clock_;
}

void SeparateMessageTransport::on_new_comm(mpism::ToolCtx& ctx,
                                           mpism::CommId comm) {
  const auto i = static_cast<std::size_t>(comm);
  if (i >= shadow_.size()) shadow_.resize(i + 1, mpism::kCommNull);
  shadow_[i] = ctx.raw_comm_dup(comm);
}

}  // namespace dampi::piggyback
