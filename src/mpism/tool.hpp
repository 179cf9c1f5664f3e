// PnMPI-style interposition: a per-rank stack of tool layers sees every
// MPI call before the runtime executes it and every completion after.
//
// This is the moral equivalent of the paper's "DAMPI-PnMPI modules": a
// layer may rewrite call arguments (DAMPI's GUIDED_RUN determinizes
// MPI_ANY_SOURCE this way), hand the engine a piggybacked clock to carry
// on a send's envelope, issue raw operations that bypass the stack (the
// finalize drain, shadow communicator dups), and account extra virtual
// time (the ISP layer's per-call scheduler round-trips).
//
// Hook discipline: pre_* hooks run top-to-bottom, post_* hooks run
// bottom-to-top, mirroring how a PMPI wrapper wraps the layer beneath it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mpism/request.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

/// Arguments of a send as seen (and possibly rewritten) by tool layers.
/// dst is communicator-relative.
struct SendCall {
  Rank dst = -1;
  Tag tag = 0;
  CommId comm = kCommWorld;
  Bytes* payload = nullptr;  ///< mutable: packed-payload piggyback rewrites it
  bool blocking = false;
  /// A piggybacked clock for the engine to carry on the payload's
  /// envelope, set by a pre_isend hook and read while the send is
  /// injected; the receiver's hooks find it in ReqCompletion::carried.
  /// With `carry_charged` it is charged as a message of its own, as the
  /// separate-message piggyback's shadow send would be: the send
  /// overhead and bytes, a message id and a tool message at the sender,
  /// and an arrival time for the receiver's ToolCtx::charge_arrival.
  const Bytes* carry = nullptr;
  bool carry_charged = false;
};

/// Identity of an injected message, reported to post_isend hooks.
struct SendInfo {
  std::uint64_t seq = 0;
  std::uint64_t msg_id = 0;
  Rank dst_world = -1;
};

/// Arguments of a receive. src may be rewritten (kAnySource -> concrete
/// source is exactly how guided replay enforces an epoch decision).
struct RecvCall {
  Rank src = kAnySource;
  Tag tag = kAnyTag;
  CommId comm = kCommWorld;
  bool blocking = false;
};

struct ProbeCall {
  Rank src = kAnySource;
  Tag tag = kAnyTag;
  CommId comm = kCommWorld;
  bool blocking = false;
};

/// A collective call crossing the stack. Layers deposit a piggyback
/// contribution in pre_collective; the runtime routes contributions
/// according to the data-flow direction of the operation (see CollResult).
struct CollCall {
  CollKind kind = CollKind::kBarrier;
  CommId comm = kCommWorld;
  Rank root = 0;  ///< comm-relative; meaningful for rooted collectives
  Bytes pb_contribution;
};

/// What a completed collective hands back to tool layers:
///  - all-to-all-flavored ops (barrier, allreduce, allgather, alltoall,
///    comm_dup, comm_split): `incoming` = merge of every participant's
///    contribution (via RunOptions::tools.coll_merge);
///  - bcast/scatter at a non-root: `incoming` = the root's contribution;
///  - reduce/gather at the root: merge of all contributions;
///  - otherwise (root of bcast/scatter, non-root of reduce/gather):
///    has_incoming = false — no clock flows toward this process, which is
///    precisely the paper's per-collective Lamport update rule.
struct CollResult {
  bool has_incoming = false;
  Bytes incoming;
  CommId new_comm = kCommNull;  ///< comm_dup / comm_split product
};

/// A completed request as seen by post_wait hooks, before user delivery.
struct ReqCompletion {
  RequestId id = kNullRequest;
  ReqKind kind = ReqKind::kSend;
  CommId comm = kCommWorld;
  /// As posted to the runtime, i.e. after any tool rewrites upstream.
  Rank posted_src = kAnySource;
  Tag posted_tag = kAnyTag;
  /// Matched message identity (receives only). src_world is the sender's
  /// world rank; status.source is communicator-relative.
  Rank src_world = -1;
  Tag tag = kAnyTag;
  std::uint64_t seq = 0;
  std::uint64_t msg_id = 0;
  Status status;
  /// Receive payload; hooks may rewrite (packed piggyback strips its
  /// prefix here) before the engine hands it to the user.
  Bytes* payload = nullptr;
  /// Receives: the clock the message carries (SendCall::carry; empty
  /// when it carries none), valid while the post_wait hooks run.
  const CarriedClock* carried = nullptr;
};

/// Runtime services available to tool layers. Raw operations bypass the
/// tool stack (they are the PMPI_* calls of the paper's pseudocode) but
/// still travel through the engine, so they pay virtual-time costs and
/// obey matching semantics; in a stopped run they unwind the rank. All
/// ranks are communicator-relative.
class ToolCtx {
 public:
  virtual ~ToolCtx() = default;

  virtual Rank world_rank() const = 0;
  virtual int world_size() const = 0;
  virtual int comm_size(CommId comm) const = 0;
  virtual Rank comm_rank(CommId comm) const = 0;
  virtual Rank to_world(CommId comm, Rank rel) const = 0;
  virtual Rank to_rel(CommId comm, Rank world) const = 0;

  /// Blocking receive; returns its status and moves the clock the
  /// message carries into `*carried`.
  virtual Status raw_recv(Rank src, Tag tag, CommId comm, Bytes* out,
                          CarriedClock* carried) = 0;
  /// Nonblocking probe.
  virtual bool raw_iprobe(Rank src, Tag tag, CommId comm, Status* status) = 0;
  /// Tool-internal barrier over `comm` (used by the finalize-time drain
  /// that mirrors MPI_Finalize's collective semantics).
  virtual void raw_barrier(CommId comm) = 0;
  /// Collective among the members of `comm`; every member's stack must
  /// call it the same number of times in the same order. The new
  /// communicator is tool-internal (exempt from leak accounting).
  virtual CommId raw_comm_dup(CommId comm) = 0;

  /// Charge `us` of virtual time to this rank (tool bookkeeping costs).
  virtual void add_cost(double us) = 0;
  /// Charge `us` `times` over: the same additions, in the same order, as
  /// that many add_cost calls.
  virtual void add_cost_times(double us, std::uint64_t times) = 0;
  /// Receive a message that reaches this rank at `arrival_vtime` as the
  /// engine receives a matched one: the clock waits for the arrival, then
  /// pays the receive overhead. A charged carried clock's receive
  /// (SendCall::carry_charged). Unwinds the rank of a stopped run, as the
  /// raw services do.
  virtual void charge_arrival(double arrival_vtime) = 0;

  /// Current virtual time of this rank, in microseconds.
  virtual double vtime() const = 0;
  /// How many user calls have entered a tool stack this run, on any
  /// rank, this one included: a call's pre_* hooks see its own 1-based
  /// number, and anything a layer does later sees a larger one. Under the
  /// coop scheduler a replay of a schedule repeats the sequence, so a
  /// layer that stamps its events with it can tell which of them happened
  /// before a given call started.
  virtual std::uint64_t call_seq() const = 0;
  /// Records `message` as this rank's error and stops the run. From a
  /// pre_* hook, the layers below and the engine never see the call, and
  /// the rank unwinds from its Proc call.
  virtual void fail_run(const std::string& message) = 0;
};

/// Base class for interposition layers. Default implementations are
/// no-ops, so layers override only the hooks they care about.
class ToolLayer {
 public:
  virtual ~ToolLayer() = default;

  virtual void on_init(ToolCtx&) {}
  /// Runs when the rank's program returns, before leak accounting.
  virtual void on_finalize(ToolCtx&) {}

  virtual void pre_isend(ToolCtx&, SendCall&) {}
  virtual void post_isend(ToolCtx&, const SendCall&, RequestId,
                          const SendInfo&) {}

  virtual void pre_irecv(ToolCtx&, RecvCall&) {}
  virtual void post_irecv(ToolCtx&, const RecvCall&, RequestId) {}

  virtual void pre_wait(ToolCtx&, RequestId) {}
  virtual void post_wait(ToolCtx&, ReqCompletion&) {}

  virtual void pre_probe(ToolCtx&, ProbeCall&) {}
  virtual void post_probe(ToolCtx&, const ProbeCall&, bool /*flag*/,
                          Status&) {}

  virtual void pre_collective(ToolCtx&, CollCall&) {}
  virtual void post_collective(ToolCtx&, const CollCall&, const CollResult&) {}

  virtual void on_pcontrol(ToolCtx&, int /*level*/, const std::string&) {}

  /// Called on every rank's stack once the run has ended — completed,
  /// failed, deadlocked, timed out or cancelled — before Runtime::run
  /// returns, with no rank executing. A layer that returns true has
  /// finished its per-run work and reset itself to its constructed
  /// state, and the runtime keeps the stack for its next run. With the
  /// default (false) anywhere in a stack, that stack is destroyed and
  /// rebuilt from ToolSetup::make_stack before the rank's next run.
  virtual bool reset_for_next_run() { return false; }
};

/// Per-run tool configuration: a factory producing each rank's layer
/// stack (index 0 = top of stack) plus the merge function the runtime
/// uses to combine collective piggyback contributions (component-wise max
/// for vector clocks, scalar max for Lamport clocks).
struct ToolSetup {
  std::function<std::vector<std::unique_ptr<ToolLayer>>(Rank rank,
                                                        int nprocs)>
      make_stack;
  std::function<Bytes(const std::vector<Bytes>&)> coll_merge;

  bool empty() const { return !make_stack; }
};

}  // namespace dampi::mpism
