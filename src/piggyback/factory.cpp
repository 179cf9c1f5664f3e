#include "common/check.hpp"
#include "piggyback/packed_payload.hpp"
#include "piggyback/separate_message.hpp"
#include "piggyback/telepathic.hpp"
#include "piggyback/transport.hpp"

namespace dampi::piggyback {

std::unique_ptr<Transport> make_transport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSeparateMessage:
      return std::make_unique<SeparateMessageTransport>();
    case TransportKind::kPackedPayload:
      return std::make_unique<PackedPayloadTransport>();
    case TransportKind::kTelepathic:
      return std::make_unique<TelepathicTransport>();
  }
  DAMPI_CHECK_MSG(false, "unknown transport kind");
  return nullptr;
}

}  // namespace dampi::piggyback
