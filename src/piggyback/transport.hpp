// Piggyback transports: how a sender's clock travels with each message.
//
// The paper (§II-D, citing Schulz/Bronevetsky/de Supinski) weighs three
// mechanisms — payload packing, datatype packing, separate messages — and
// picks separate messages for DAMPI. This library implements the chosen
// mechanism plus the payload-packing alternative (for the overhead
// ablation) and a "telepathic" transport that moves clocks with no
// messages at all: the latter models ISP's centralized scheduler, which
// has a global view and needs no piggybacking, and is also handy as a
// test oracle.
//
// The separate-message and telepathic transports hand their clock to the
// engine (mpism::SendCall::carry), which carries it on the payload's
// envelope and hands it to the receiver with the payload's completion
// (mpism::ReqCompletion::carried); the separate-message transport has it
// charged as the message of its own the real tool sends. Payload packing
// rewrites the payload itself.
//
// A transport is owned and driven by the DAMPI tool layer; it is not a
// ToolLayer itself. One instance per rank, reused across the runs of a
// replay context (reset() between runs).
#pragma once

#include <memory>

#include "mpism/tool.hpp"
#include "mpism/types.hpp"

namespace dampi::piggyback {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Called once per rank before the program starts (collective-safe:
  /// every rank calls it in the same order).
  virtual void on_init(mpism::ToolCtx&) {}

  /// Called before the payload send is injected. `clock` is the sender's
  /// current clock, serialized, and outlives the send. May rewrite the
  /// call's payload or have the engine carry the clock
  /// (SendCall::carry).
  virtual void on_pre_send(mpism::ToolCtx&, mpism::SendCall&,
                           const mpism::Bytes& /*clock*/) {}

  /// Called when a receive completes; returns the sender's clock for this
  /// message, in a buffer valid until the completion's hooks return. May
  /// rewrite the completion's payload/status (the packed mechanism strips
  /// its prefix here). For a wildcard receive this runs only once the
  /// source is known — the paper's deferred-posting rule that avoids
  /// tool-induced deadlock falls out of this placement.
  virtual const mpism::Bytes& on_recv_complete(mpism::ToolCtx&,
                                               mpism::ReqCompletion&) = 0;

  /// Called when the program created a communicator (dup/split product),
  /// in collective order across its members; transports that keep shadow
  /// communicators mirror it here.
  virtual void on_new_comm(mpism::ToolCtx&, mpism::CommId) {}

  /// Back to the constructed state for the next run (buffers stay).
  virtual void reset() {}
};

enum class TransportKind { kSeparateMessage, kPackedPayload, kTelepathic };

/// Create one rank's transport.
std::unique_ptr<Transport> make_transport(TransportKind kind);

}  // namespace dampi::piggyback
