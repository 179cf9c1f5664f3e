#include "piggyback/packed_payload.hpp"

#include <cstring>

#include "common/check.hpp"

namespace dampi::piggyback {
namespace {

// Wire prefix: u32 clock length, then the clock bytes, then the payload.
constexpr std::size_t kLenBytes = 4;
// Sender-side virtual cost of re-copying a payload byte while packing.
constexpr double kCopyUsPerByte = 0.002;

}  // namespace

void PackedPayloadTransport::on_pre_send(mpism::ToolCtx& ctx,
                                         mpism::SendCall& call,
                                         const mpism::Bytes& clock) {
  // Packing re-copies the entire user payload — the mechanism's real
  // cost, paid per byte at the sender (the receiver strips in place).
  ctx.add_cost(kCopyUsPerByte *
               static_cast<double>(call.payload->size() + clock.size()));
  mpism::Bytes packed;
  packed.reserve(kLenBytes + clock.size() + call.payload->size());
  const std::uint32_t len = static_cast<std::uint32_t>(clock.size());
  packed.resize(kLenBytes);
  std::memcpy(packed.data(), &len, kLenBytes);
  packed.insert(packed.end(), clock.begin(), clock.end());
  packed.insert(packed.end(), call.payload->begin(), call.payload->end());
  *call.payload = std::move(packed);
}

const mpism::Bytes& PackedPayloadTransport::on_recv_complete(
    mpism::ToolCtx&, mpism::ReqCompletion& c) {
  mpism::Bytes& payload = *c.payload;
  DAMPI_CHECK_MSG(payload.size() >= kLenBytes,
                  "packed piggyback prefix missing");
  std::uint32_t len = 0;
  std::memcpy(&len, payload.data(), kLenBytes);
  DAMPI_CHECK_MSG(payload.size() >= kLenBytes + len,
                  "packed piggyback prefix truncated");
  clock_.assign(payload.begin() + kLenBytes,
                payload.begin() +
                    static_cast<std::ptrdiff_t>(kLenBytes + len));
  payload.erase(payload.begin(),
                payload.begin() + static_cast<std::ptrdiff_t>(kLenBytes + len));
  c.status.bytes = payload.size();
  return clock_;
}

}  // namespace dampi::piggyback
