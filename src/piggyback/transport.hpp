// Piggyback transports: how a sender's clock travels with each message.
//
// The paper (§II-D, citing Schulz/Bronevetsky/de Supinski) weighs three
// mechanisms — payload packing, datatype packing, separate messages — and
// picks separate messages for DAMPI. This library implements the chosen
// mechanism plus the payload-packing alternative (for the overhead
// ablation) and a "telepathic" transport that moves clocks through shared
// memory without any messages: the latter models ISP's centralized
// scheduler, which has a global view and needs no piggybacking, and is
// also handy as a test oracle.
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
  /// current clock, serialized. May rewrite the call's payload.
  virtual void on_pre_send(mpism::ToolCtx&, mpism::SendCall&,
                           const mpism::Bytes& /*clock*/) {}

  /// Called after the payload send was injected (its sequence number is
  /// known here).
  virtual void on_post_send(mpism::ToolCtx&, const mpism::SendCall&,
                            const mpism::SendInfo&,
                            const mpism::Bytes& /*clock*/) {}

  /// Called when a receive completes; returns the sender's clock for this
  /// message, in a transport-owned buffer valid until the next call. May
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

/// Shared cross-rank state for the telepathic transport (one per run).
class TelepathicBoard;

struct TransportFactoryState {
  std::shared_ptr<TelepathicBoard> board;  ///< only for kTelepathic
};

/// Create one rank's transport. For kTelepathic, `state.board` must be a
/// run-wide shared board.
std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          const TransportFactoryState& state);

}  // namespace dampi::piggyback
