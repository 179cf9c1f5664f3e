// Proc: the per-rank MPI-like API that programs under verification use.
//
// The surface mirrors the MPI subset the paper's benchmarks exercise:
// nonblocking and blocking point-to-point with MPI_ANY_SOURCE /
// MPI_ANY_TAG, wait/test/waitall/waitany, probe/iprobe, the common
// collectives, communicator management, and MPI_Pcontrol. Tool layers
// see blocking send/recv as isend/irecv + wait, a uniform call stream
// (the paper's Algorithm 1 likewise presents only Irecv/Isend/Wait as
// the representative operations); the engine runs an eager send, or a
// receive whose message is already queued, as one call with no request
// record.
//
// Error-reporting contract: misuse (invalid ranks, mismatched
// collectives) and explicit failures (fail/require) surface as errors in
// the RunReport — they are findings about the program under test, not
// tool crashes.
//
// Stopped runs: once the run stops (a rank failed, a fault fired, a
// deadlock, watchdog or cancel verdict), a call returns only by throwing
// AbortRun, which unwinds the program to the engine's rank body. The
// engine returns from a stopped call at once; the throw happens here,
// after one stop check per call, so it crosses only the program's frames.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mpism/types.hpp"

namespace dampi::mpism {

class Engine;
struct CollUserData;
struct CollUserResult;

class Proc {
 public:
  Proc(Engine& engine, Rank world_rank)
      : engine_(&engine), world_rank_(world_rank) {}

  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  /// World rank / world size.
  Rank rank() const { return world_rank_; }
  int size() const;

  /// Rank and size within a communicator.
  Rank comm_rank(CommId comm) const;
  int comm_size(CommId comm) const;

  // --- point-to-point -----------------------------------------------------
  RequestId isend(Rank dst, Tag tag, Bytes payload, CommId comm = kCommWorld);
  RequestId irecv(Rank src, Tag tag, CommId comm = kCommWorld);
  void send(Rank dst, Tag tag, Bytes payload, CommId comm = kCommWorld);
  Status recv(Rank src, Tag tag, Bytes* out = nullptr,
              CommId comm = kCommWorld);

  /// Synchronous (rendezvous) sends: the request completes only when a
  /// matching receive is posted — MPI_Ssend/MPI_Issend. Unlike the eager
  /// default, head-to-head ssends deadlock, which the detector reports.
  RequestId issend(Rank dst, Tag tag, Bytes payload, CommId comm = kCommWorld);
  void ssend(Rank dst, Tag tag, Bytes payload, CommId comm = kCommWorld);

  /// MPI_Sendrecv: concurrent send and receive (deadlock-safe pairing).
  Status sendrecv(Rank dst, Tag send_tag, Bytes payload, Rank src,
                  Tag recv_tag, Bytes* out = nullptr,
                  CommId comm = kCommWorld);

  /// Blocks until `req` completes; receives deposit their payload in
  /// *out when non-null.
  Status wait(RequestId req, Bytes* out = nullptr);
  /// Nonblocking completion check; on true the request is consumed.
  bool test(RequestId req, Status* status = nullptr, Bytes* out = nullptr);
  void waitall(std::span<RequestId> reqs);
  /// Blocks until one of `reqs` completes; returns its index and marks the
  /// handle null. Deterministic: the lowest ready index wins.
  std::size_t waitany(std::span<RequestId> reqs, Status* status = nullptr,
                      Bytes* out = nullptr);
  /// MPI_Testall: true iff every live request is complete, in which case
  /// all are consumed; otherwise nothing is consumed.
  bool testall(std::span<RequestId> reqs);
  /// MPI_Testany: consumes and returns the lowest complete index (the
  /// handle becomes null), or reqs.size() when none is ready.
  std::size_t testany(std::span<RequestId> reqs, Status* status = nullptr,
                      Bytes* out = nullptr);

  Status probe(Rank src, Tag tag, CommId comm = kCommWorld);
  bool iprobe(Rank src, Tag tag, Status* status = nullptr,
              CommId comm = kCommWorld);

  // --- collectives --------------------------------------------------------
  void barrier(CommId comm = kCommWorld);
  /// In-place broadcast: root's `*data` is delivered to every member.
  void bcast(Bytes* data, Rank root, CommId comm = kCommWorld);
  /// Element-wise reduction of equal-length u64/f64 arrays (ReduceOp picks
  /// the element type). Non-roots receive an empty vector.
  Bytes reduce(const Bytes& contribution, ReduceOp op, Rank root,
               CommId comm = kCommWorld);
  Bytes allreduce(const Bytes& contribution, ReduceOp op,
                  CommId comm = kCommWorld);
  /// Root receives every member's contribution ordered by comm rank.
  std::vector<Bytes> gather(const Bytes& contribution, Rank root,
                            CommId comm = kCommWorld);
  /// Root supplies one slice per member; each member receives its slice.
  Bytes scatter(std::vector<Bytes> slices_at_root, Rank root,
                CommId comm = kCommWorld);
  std::vector<Bytes> allgather(const Bytes& contribution,
                               CommId comm = kCommWorld);
  /// Member i's out[j] = member j's in[i].
  std::vector<Bytes> alltoall(std::vector<Bytes> in,
                              CommId comm = kCommWorld);

  // Typed conveniences over allreduce/reduce.
  std::uint64_t allreduce_u64(std::uint64_t value, ReduceOp op,
                              CommId comm = kCommWorld);
  double allreduce_f64(double value, ReduceOp op, CommId comm = kCommWorld);

  // --- communicator management --------------------------------------------
  CommId comm_dup(CommId comm = kCommWorld);
  /// Members with the same color form a new communicator, ordered by
  /// (key, world rank); every member receives the id of its color's comm.
  CommId comm_split(int color, int key, CommId comm = kCommWorld);
  void comm_free(CommId comm);

  // --- misc ----------------------------------------------------------------
  /// MPI_Pcontrol: forwarded to tool layers (DAMPI's loop-iteration
  /// abstraction brackets uninteresting loops with level 1 / 0).
  void pcontrol(int level, const std::string& what = {});

  /// Model `us` microseconds of local computation (virtual time only).
  void compute(double us);

  /// Report a bug in the program under test and abort the run.
  [[noreturn]] void fail(const std::string& message);
  /// fail() unless `condition` holds.
  void require(bool condition, const std::string& message);

 private:
  /// Throws AbortRun once the run has stopped.
  void unwind_if_stopped() const;
  /// One collective through the engine, then the stop check.
  CollUserResult collective(CollKind kind, CommId comm, Rank root,
                            CollUserData data);

  Engine* engine_;
  Rank world_rank_;
};

}  // namespace dampi::mpism
