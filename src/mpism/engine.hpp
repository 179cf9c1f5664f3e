// Engine: internal implementation of the mpism runtime.
//
// Shared state is guarded by an EngineLock (engine_lock.hpp): either one
// global mutex (the pre-shard baseline, EngineLockKind::kGlobal) or
// per-destination-rank shards (the default). Under sharding, everything
// owned by rank r — its match index, unexpected/posted queues, request
// table, pools, virtual clock, and block/wake bookkeeping — lives behind
// shard r; a send acquires the {sender, receiver} shard pair in
// ascending order; collectives, communicator management, and the
// count-based deadlock scan take all shards (ascending); verdict flags,
// counters, and id assignment are atomics. How ranks execute — one OS
// thread each, or cooperative fibers multiplexed run-to-block onto the
// calling thread — is delegated to a pluggable RankScheduler
// (mpism/scheduler.hpp); the engine only tells it when a rank blocks and
// whose wake predicate may have flipped. Matching is *eager*: every send
// is matched against posted receives at injection time and every receive
// against queued sends at post time, so the invariant "no pending posted
// receive is compatible with any queued unexpected message" holds at all
// times. Under eager sends this makes "every live rank is blocked" an
// exact deadlock criterion.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpism/comm.hpp"
#include "mpism/engine_lock.hpp"
#include "mpism/envelope.hpp"
#include "mpism/match_index.hpp"
#include "mpism/pool.hpp"
#include "mpism/report.hpp"
#include "mpism/request.hpp"
#include "mpism/runtime.hpp"
#include "mpism/scheduler.hpp"
#include "mpism/tool.hpp"

namespace dampi::mpism {

/// Thrown inside a rank thread when the run has been aborted elsewhere
/// (another rank failed, or a deadlock was detected). Control flow only.
struct AbortRun {};

/// Thrown to report a bug in the program under test.
struct ProgramFailure {
  std::string message;
};

/// User data flowing into a collective (fields used depend on the kind).
struct CollUserData {
  Bytes single;              ///< bcast (root) / reduce / gather / allgather
  std::vector<Bytes> multi;  ///< scatter (root) / alltoall
  ReduceOp op = ReduceOp::kSumU64;
  int color = 0;
  int key = 0;
};

/// User data flowing out of a collective.
struct CollUserResult {
  Bytes single;              ///< bcast / reduce@root / allreduce / scatter
  std::vector<Bytes> multi;  ///< gather@root / allgather / alltoall
  CommId new_comm = kCommNull;
};

class Engine {
 public:
  explicit Engine(RunOptions options);
  ~Engine();

  RunReport run(const ProgramFn& program);

  /// External cancellation: ends the run (RunReport::cancelled) from any
  /// thread. Safe at any time — before run() (the run aborts on entry),
  /// during (every rank unwinds), or after completion (no-op). Loses to
  /// an already-declared verdict (deadlock/abort), never overrides one.
  void cancel(const std::string& reason);

  // --- Proc-facing API (travels through the tool stack) -------------------
  RequestId api_isend(Rank r, Rank dst, Tag tag, Bytes payload, CommId comm,
                      bool blocking, bool synchronous);
  RequestId api_irecv(Rank r, Rank src, Tag tag, CommId comm, bool blocking);
  Status api_wait(Rank r, RequestId req, Bytes* out, bool count_stat);
  bool api_test(Rank r, RequestId req, Status* status, Bytes* out);
  void api_waitall(Rank r, std::span<RequestId> reqs);
  std::size_t api_waitany(Rank r, std::span<RequestId> reqs, Status* status,
                          Bytes* out);
  bool api_testall(Rank r, std::span<RequestId> reqs);
  std::size_t api_testany(Rank r, std::span<RequestId> reqs, Status* status,
                          Bytes* out);
  /// flag == nullptr -> blocking probe; otherwise iprobe semantics.
  Status api_probe(Rank r, Rank src, Tag tag, CommId comm, bool* flag);
  CollUserResult api_collective(Rank r, CollKind kind, CommId comm, Rank root,
                                CollUserData data);
  void api_comm_free(Rank r, CommId comm);
  void api_pcontrol(Rank r, int level, const std::string& what);
  void api_compute(Rank r, double us);
  [[noreturn]] void api_fail(Rank r, const std::string& message);

  // --- translation / introspection ----------------------------------------
  int world_size() const { return opts_.nprocs; }
  int comm_size_of(CommId comm);
  Rank comm_rank_of(CommId comm, Rank world);
  Rank to_world(CommId comm, Rank rel);
  Rank to_rel(CommId comm, Rank world);

  // --- ToolCtx raw services (bypass the tool stack) ------------------------
  RequestId raw_isend(Rank r, Rank dst, Tag tag, CommId comm, Bytes payload);
  RequestId raw_irecv(Rank r, Rank src, Tag tag, CommId comm);
  Status raw_wait(Rank r, RequestId req, Bytes* out);
  Status raw_recv(Rank r, Rank src, Tag tag, CommId comm, Bytes* out);
  bool raw_iprobe(Rank r, Rank src, Tag tag, CommId comm, Status* status);
  void raw_barrier(Rank r, CommId comm);
  CommId raw_comm_dup(Rank r, CommId comm);
  void add_cost(Rank r, double us);
  double vtime_of(Rank r);

 private:
  enum class BlockKind { kNone, kWait, kProbe, kColl };

  /// What a blocked rank waits for, kept as plain fields so blocking
  /// never formats text; describe() renders it only when a deadlock is
  /// declared.
  struct BlockDesc {
    enum class Op : std::uint8_t { kSsend, kRecv, kWaitany, kProbe, kColl };
    Op op = Op::kWaitany;
    Rank src = 0;  ///< kRecv: posted world source; kProbe: comm-relative
    Tag tag = 0;
    CommId comm = 0;
    CollKind coll = CollKind::kBarrier;
    std::uint64_t gen = 0;

    BlockKind kind() const;
    std::string describe() const;
  };

  struct PerRank {
    /// Pools are declared before the request table and match index so
    /// they outlive the structures that release into them at teardown.
    /// Owned by this rank's shard (every access holds it).
    SlabPool<RequestRecord> req_pool;
    BufferPool buf_pool;
    /// Virtual clock. Single-writer (the owning rank, under its shard);
    /// read cross-shard by budget charges and the final report, so it is
    /// atomic with relaxed ordering.
    std::atomic<double> vtime{0.0};
    bool finished = false;
    bool blocked = false;
    BlockDesc block_desc;
    /// Wake predicate of the blocked operation; consulted by the deadlock
    /// detector so a satisfied-but-not-yet-woken rank is not misread as
    /// stuck.
    std::function<bool()> block_pred;
    /// Unexpected-message and posted-receive queues (linear or indexed,
    /// per RunOptions::match). Holds non-owning pointers into `reqs` for
    /// posted receives; a record stays indexed until matched.
    std::unique_ptr<MatchIndex> match;
    /// Wildcard-candidate out-buffer, reused across queries so the hot
    /// path stops allocating a vector per receive/probe.
    std::vector<MatchCandidate> cand_buf;
    std::unordered_map<RequestId, PoolPtr<RequestRecord>> reqs;
    std::unordered_map<CommId, std::uint64_t> coll_gen;
    /// Per-(dst, comm) send sequence counters, owned by the *sender*
    /// shard (key packs dst and comm).
    std::unordered_map<std::uint64_t, std::uint64_t> seq_counters;
    std::vector<std::unique_ptr<ToolLayer>> tools;
    std::unique_ptr<ToolCtx> ctx;

    double vt() const { return vtime.load(std::memory_order_relaxed); }
    void vt_store(double v) { vtime.store(v, std::memory_order_relaxed); }
    void vt_add(double us) { vt_store(vt() + us); }
    void vt_floor(double v) {
      if (v > vt()) vt_store(v);
    }
  };

  struct CollSlot {
    CollKind kind = CollKind::kBarrier;
    Rank root_world = -1;
    int arrived = 0;
    int departed = 0;
    bool root_arrived = false;
    double max_arrival_vtime = 0.0;
    double root_arrival_vtime = 0.0;
    std::vector<Bytes> pb;
    std::vector<Bytes> data;
    std::vector<std::vector<Bytes>> multi;
    std::vector<int> colors;
    std::vector<int> keys;
    ReduceOp op = ReduceOp::kSumU64;
    bool op_set = false;
    // Lazily computed results.
    bool merged_pb_done = false;
    Bytes merged_pb;
    bool reduced_done = false;
    Bytes reduced;
    bool split_done = false;
    std::vector<CommId> comm_of_member;
    CommId dup_comm = kCommNull;
  };

  // Internal primitives; `g` must cover the shards named per method (at
  // minimum shard r; do_isend additionally dst_world; collective paths
  // hold all shards).
  RequestId do_isend(EngineGuard& g, Rank r, Rank dst_world, Tag tag,
                     CommId comm, Bytes payload, bool tool_internal,
                     bool synchronous, SendInfo* info);
  RequestId do_irecv(EngineGuard& g, Rank r, Rank src_world, Tag tag,
                     CommId comm, bool tool_internal);
  /// Blocks until `req` completes; does not consume.
  void block_until_complete(EngineGuard& g, Rank r, RequestId req);
  /// Runs post_wait hooks (guard dropped) and consumes the request.
  Status finish_request(EngineGuard& g, Rank r, RequestId req, Bytes* out,
                        bool run_hooks);
  /// Try to match a newly arrived envelope against dst's posted receives
  /// (guard must cover shard dst). Returns true when matched (request
  /// completed).
  bool match_arrival(Rank dst, Envelope&& env);
  void complete_recv(Rank r, RequestRecord& rec, Envelope&& env);
  /// Fresh pooled request record from r's slab (shard r held).
  PoolPtr<RequestRecord> new_request(PerRank& me);

  /// Enter the blocked state and wait for `pred`; throws AbortRun when the
  /// run aborts or deadlocks while waiting.
  template <typename Pred>
  void blocking_wait(EngineGuard& g, Rank r, const BlockDesc& desc,
                     Pred pred);
  /// Called right before a rank would block (or after it finishes); if
  /// every other live rank is already blocked, declares a deadlock.
  /// Escalates `g` to all shards for the scan (dropping and retaking it
  /// when it holds fewer). A no-op under schedulers that detect stalls
  /// themselves (coop): there a rank can be runnable-but-unscheduled,
  /// which this count-based check cannot see, so the scheduler's
  /// no-candidate scan is authoritative.
  void maybe_declare_deadlock(EngineGuard& g, Rank r);
  /// Declares the deadlock verdict; `g` must hold all shards.
  void declare_deadlock(EngineGuard& g);
  /// Watchdog verdict: a per-run budget expired. Idempotent; loses to an
  /// already-declared abort/deadlock. Takes the verdict mutex itself;
  /// callable with or without shards held.
  void declare_timeout(std::string reason);
  /// Budget accounting at MPI-call entry (shard r held): counts the op,
  /// checks the op/vtime/wall budgets, and unwinds via AbortRun when one
  /// expired. A single predicted-false branch when no budget is armed;
  /// the wall-clock read is amortized over a 32-op stride.
  void charge_op(EngineGuard& g, Rank r);
  void abort_all();
  [[noreturn]] void throw_program_error(EngineGuard& g, Rank r,
                                        const std::string& message);
  void check_abort(EngineGuard& g);
  bool stopped() const {
    return aborted_.load(std::memory_order_acquire) ||
           deadlocked_.load(std::memory_order_acquire);
  }

  // Tool hook dispatch (no shards held: hooks may re-enter).
  void hooks_init(Rank r);
  void hooks_finalize(Rank r);
  void hooks_pre_isend(Rank r, SendCall& call);
  void hooks_post_isend(Rank r, const SendCall& call, RequestId id,
                        const SendInfo& info);
  void hooks_pre_irecv(Rank r, RecvCall& call);
  void hooks_post_irecv(Rank r, const RecvCall& call, RequestId id);
  void hooks_pre_wait(Rank r, RequestId id);
  void hooks_post_wait(Rank r, ReqCompletion& completion);
  void hooks_pre_probe(Rank r, ProbeCall& call);
  void hooks_post_probe(Rank r, const ProbeCall& call, bool flag,
                        Status& status);
  void hooks_pre_collective(Rank r, CollCall& call);
  void hooks_post_collective(Rank r, const CollCall& call,
                             const CollResult& result);
  void hooks_pcontrol(Rank r, int level, const std::string& what);

  CollUserResult collective_impl(Rank r, CollKind kind, CommId comm,
                                 Rank root_rel, CollUserData data,
                                 Bytes pb_contribution, bool tool_internal,
                                 CollResult* tool_result);
  void compute_slot_results(CollSlot& slot, const CommRecord& comm_rec,
                            CollKind kind);
  Bytes apply_reduce(EngineGuard& g, Rank r, const CollSlot& slot,
                     const CommRecord& comm_rec);

  void validate_comm_member(EngineGuard& g, Rank r, CommId comm);
  std::uint64_t& seq_counter(PerRank& sender, Rank dst, CommId comm);

  PerRank& pr(Rank r) { return *ranks_[static_cast<std::size_t>(r)]; }

  /// One rank's whole life: tool-stack setup, the program, finalize, and
  /// result accounting. Runs on whatever execution context (OS thread or
  /// fiber) the scheduler provides; must not leak exceptions into it.
  void rank_body(Rank r, const ProgramFn& program);

  RunOptions opts_;
  EngineLock lock_;
  std::unique_ptr<RankScheduler> sched_;
  std::vector<std::unique_ptr<PerRank>> ranks_;
  /// Guarded by all-shards sections for writes; readers hold any shard
  /// (writers exclude them by holding every shard).
  CommTable comms_;
  /// choose() mutates the policy RNG; serialized by a leaf mutex so
  /// wildcard draws stay well-defined under sharded locking.
  std::mutex policy_mu_;
  std::unique_ptr<MatchPolicy> policy_;
  /// Collective bookkeeping: only touched under all-shards sections.
  std::map<std::pair<CommId, std::uint64_t>, CollSlot> coll_slots_;
  std::atomic<std::uint64_t> next_msg_id_{1};
  std::atomic<RequestId> next_req_id_{1};

  std::atomic<int> blocked_count_{0};
  std::atomic<int> finished_count_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> deadlocked_{false};
  std::atomic<bool> timed_out_{false};
  std::atomic<bool> cancelled_{false};
  /// Leaf mutex (ordered after all shards) guarding the verdict strings
  /// and one-winner arbitration between deadlock/timeout/cancel/error.
  std::mutex verdict_mu_;
  std::string stop_reason_;
  std::string deadlock_detail_;
  std::vector<ErrorInfo> errors_;
  bool budgets_armed_ = false;
  bool has_wall_deadline_ = false;
  std::chrono::steady_clock::time_point run_deadline_{};
  std::atomic<std::uint64_t> ops_executed_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> tool_messages_{0};
  std::atomic<std::uint64_t> request_leaks_{0};
  /// Per-rank slots are written under the owning rank's shard; the
  /// tool-message total lives in tool_messages_ above (cross-rank).
  OpStats stats_;
  /// Envelope small-buffer counters (published as engine.envelope.*).
  std::atomic<std::uint64_t> payload_inline_hits_{0};
  std::atomic<std::uint64_t> payload_heap_spills_{0};

  friend class ToolCtxImpl;
};

}  // namespace dampi::mpism
