// Engine: internal implementation of the mpism runtime.
//
// Shared state is guarded by an EngineLock (engine_lock.hpp) built after
// the scheduler and following it: under coop (every rank a fiber on one
// host thread) the engine is single-threaded by construction and takes
// no lock — every guard is a no-op. Under the thread scheduler the lock
// is one global mutex (the pre-shard baseline, EngineLockKind::kGlobal)
// or per-destination-rank shards (the default). Under sharding, everything
// owned by rank r — its match index, unexpected/posted queues, request
// table, pools, virtual clock, and block/wake bookkeeping — lives behind
// shard r; a send acquires the {sender, receiver} shard pair in
// ascending order; collectives, communicator management, and the
// count-based deadlock scan take all shards (ascending); verdict flags,
// the engine-wide counts and message-id assignment are atomics, bumped
// with a locked read-modify-write only when the engine is locked (see
// bump()), and per-sender counts are plain PerRank fields under the
// sender's shard. How ranks execute —
// one OS thread each, or cooperative fibers multiplexed run-to-block onto
// the calling thread — is delegated to a pluggable RankScheduler
// (mpism/scheduler.hpp); the engine only tells it when a rank blocks and
// whose wake predicate may have flipped. Matching is *eager*: every send
// is matched against posted receives at injection time and every receive
// against queued sends at post time, so the invariant "no pending posted
// receive is compatible with any queued unexpected message" holds at all
// times. Under eager sends this makes "every live rank is blocked" an
// exact deadlock criterion.
//
// A request gets a record only when it outlives its call (request.hpp):
// an eager blocking send (api_send) and a blocking or tool receive whose
// message is already queued (api_recv, raw_recv) complete in place, and
// run the same hooks, charges and clocks as the isend/irecv + wait pair
// they stand for. Records live in a rank-local slot table; request ids
// are rank-local, with no engine-wide counter.
//
// An Engine runs any number of times (the reset contract of
// runtime.hpp): every run ends with reset(), which returns each rank's
// requests, queued messages and collective slots to their pools and
// flat tables, rewinds ids, clocks, counters and verdicts, and resets
// the scheduler, the match policy and every reusable tool layer — so the
// next run starts exactly where a freshly constructed engine would,
// minus the allocations.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
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
#include "mpism/wait_on.hpp"

namespace dampi::mpism {

/// Unwinds a rank's program once its run has stopped (a rank failed, a
/// fault fired, a deadlock or budget verdict, a cancel). Control flow
/// only, thrown at the two facades a program or tool calls through: Proc
/// (proc.hpp) and the ToolCtx raw services. The engine itself never
/// throws it: a stopped call returns a placeholder result at once.
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
  /// run() into a caller-owned report, whose buffers are reused. A set
  /// `campaign_deadline` (the explorer's wall budget) arms the run with
  /// the earlier of it and the run's own deadline: reaching the
  /// campaign's ends the run cancelled, not timed out.
  void run(const ProgramFn& program, RunReport* report,
           std::chrono::steady_clock::time_point campaign_deadline = {});

  /// Replaces the tool setup for the following runs; every rank's stack
  /// is rebuilt from it. Call between runs only.
  void set_tools(ToolSetup tools);

  /// Objects currently checked out of this engine's slab pools (request
  /// records and match-index queue nodes) — zero between runs.
  std::uint64_t pooled_live() const;

  /// External cancellation: ends the run (RunReport::cancelled) from any
  /// thread. Safe at any time — before run() (the run aborts on entry),
  /// during (every rank unwinds), or after completion (no-op). Loses to
  /// an already-declared verdict (deadlock/abort), never overrides one.
  void cancel(const std::string& reason);

  /// True once the run has stopped (aborted, failed, deadlocked, timed
  /// out or cancelled). Every api_*/raw_* call of a stopped run returns a
  /// placeholder result without running hooks, charging time or counting
  /// stats; its caller must then unwind the rank (AbortRun).
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // --- Proc-facing API (travels through the tool stack) -------------------
  RequestId api_isend(Rank r, Rank dst, Tag tag, Bytes payload, CommId comm,
                      bool blocking, bool synchronous);
  /// Eager blocking send: api_isend + uncounted api_wait in one call
  /// (same hooks, charges and clocks), with no request record.
  void api_send(Rank r, Rank dst, Tag tag, Bytes payload, CommId comm);
  RequestId api_irecv(Rank r, Rank src, Tag tag, CommId comm, bool blocking);
  /// Blocking receive: api_irecv + uncounted api_wait in one call. It
  /// completes in place when the match is already queued; only otherwise
  /// does it post a record and block.
  Status api_recv(Rank r, Rank src, Tag tag, CommId comm, Bytes* out);
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
  Status raw_recv(Rank r, Rank src, Tag tag, CommId comm, Bytes* out,
                  CarriedClock* carried);
  bool raw_iprobe(Rank r, Rank src, Tag tag, CommId comm, Status* status);
  void raw_barrier(Rank r, CommId comm);
  CommId raw_comm_dup(Rank r, CommId comm);
  void add_cost(Rank r, double us);
  void add_cost_times(Rank r, double us, std::uint64_t times);
  /// Charges nothing once the run has stopped.
  void charge_arrival(Rank r, double arrival_vtime);
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
    /// Carried clocks' buffers, apart from the payload buffers (which
    /// come in every size), so a reused one always fits the next clock.
    BufferPool clock_pool;
    /// Virtual clock. Single-writer (the owning rank, under its shard);
    /// read cross-shard by budget charges and the final report, so it is
    /// atomic with relaxed ordering.
    std::atomic<double> vtime{0.0};
    bool finished = false;
    /// A tool layer of this rank stopped the run (ToolCtx::fail_run);
    /// the layers below it never see that call.
    bool failed_by_tool = false;
    /// What the rank is blocked in, for the deadlock report.
    BlockDesc block_desc;
    /// This rank's counts as a sender (its shard held), summed when the
    /// run is reported: user messages injected, carried clocks charged
    /// as messages of their own (tool messages), envelopes
    /// whose payload fit the inline store or spilled to the heap, and
    /// requests its program left incomplete.
    std::uint64_t messages_sent = 0;
    std::uint64_t tool_messages = 0;
    std::uint64_t payload_inline_hits = 0;
    std::uint64_t payload_heap_spills = 0;
    std::uint64_t request_leaks = 0;
    /// Unexpected-message and posted-receive queues (linear or indexed,
    /// per RunOptions::match). Holds non-owning pointers into `reqs` for
    /// posted receives; a record stays indexed until matched.
    std::unique_ptr<MatchIndex> match;
    /// Wildcard-candidate out-buffer, reused across queries so the hot
    /// path stops allocating a vector per receive/probe.
    std::vector<MatchCandidate> cand_buf;
    /// waitany's record scratch, reused the same way.
    std::vector<RequestRecord*> wait_buf;
    /// Live request records by id. Records come from req_pool; the
    /// table owns them (finish_request and reset() release them).
    RequestTable reqs;
    /// Next collective generation per communicator id.
    std::vector<std::uint64_t> coll_gen;
    /// Per-(dst, comm) send sequence counters, owned by the *sender*
    /// shard (key packs dst and comm).
    IdMap<std::uint64_t> seq_counters;
    /// Kept across runs while every layer resets itself (see
    /// ToolLayer::reset_for_next_run); empty means "build from
    /// RunOptions::tools at this rank's next start".
    std::vector<std::unique_ptr<ToolLayer>> tools;
    std::unique_ptr<ToolCtx> ctx;

    double vt() const { return vtime.load(std::memory_order_relaxed); }
    void vt_store(double v) { vtime.store(v, std::memory_order_relaxed); }
    void vt_add(double us) { vt_store(vt() + us); }
    void vt_floor(double v) {
      if (v > vt()) vt_store(v);
    }
  };

  /// One in-flight collective (comm, gen). Slots are pooled: a departed
  /// slot keeps its vectors' capacity for the next collective, and a
  /// slot's address is stable while ranks block on it. A first arrival
  /// sizes only the member vectors its kind uses; the last departure
  /// empties them again.
  struct CollSlot {
    CommId comm = kCommNull;
    std::uint64_t gen = 0;
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
    /// Scratch for the piggyback merge (contributions present).
    std::vector<Bytes> present;

    /// Claims the slot for (comm, gen) with freshly zeroed state.
    void open(CommId c, std::uint64_t g);
  };

  /// What finish_op completes: a request record's fields, or those of
  /// an operation that completed inside its call without one.
  struct Done {
    RequestId id = kNullRequest;
    ReqKind kind = ReqKind::kSend;
    CommId comm = kCommWorld;
    Rank posted_src_world = kAnySource;
    Tag posted_tag = kAnyTag;
    /// Synchronous sends: when the matching receive released them.
    double complete_vtime = 0.0;
  };

  // Internal primitives; `g` must cover the shards named per method (at
  // minimum shard r; do_isend additionally dst_world; collective paths
  // hold all shards).
  /// The send every user send shares: pre_isend hooks, checks, charges,
  /// injection, post_isend hooks. With `keep_record` the request gets a
  /// record to wait on; without, it completed on injection and only
  /// draws an id.
  RequestId send_impl(Rank r, SendCall& call, bool synchronous,
                      bool keep_record);
  /// A user receive's checks, charges and stats (shard r held); sets the
  /// world source. False when the run has stopped.
  bool enter_recv(EngineGuard& g, Rank r, const RecvCall& call,
                  Rank* src_world);
  /// Injects the message of `call` (and the clock it carries) to
  /// `dst_world`. `sync_rec` is a synchronous sender's record, completed
  /// when the message is matched.
  void do_isend(EngineGuard& g, Rank r, Rank dst_world, const SendCall& call,
                Payload payload, RequestRecord* sync_rec, SendInfo* info);
  /// The queued message a receive posted now matches (the policy's pick
  /// among wildcard candidates), or nullptr when none is queued.
  const Envelope* match_queued(Rank r, Rank src_world, Tag tag, CommId comm);
  /// A fresh record for a receive, with its posted fields.
  RequestRecord& add_recv(Rank r, Rank src_world, Tag tag, CommId comm,
                          bool tool_internal);
  /// Posts a receive that matched nothing queued; returns its id.
  RequestId post_recv(Rank r, Rank src_world, Tag tag, CommId comm,
                      bool tool_internal);
  /// Blocks until `req` completes; does not consume. False when the run
  /// stopped instead.
  bool block_until_complete(EngineGuard& g, Rank r, RequestId req);
  /// Takes the record out of the table and completes it (finish_op).
  Status finish_request(EngineGuard& g, Rank r, RequestId req, Bytes* out,
                        bool run_hooks, CarriedClock* carried = nullptr);
  /// The one completion path: clocks, status and payload delivery, and
  /// the post_wait hooks (guard dropped) when `run_hooks`. `msg` is the
  /// matched message of a receive (an empty envelope for a send); the
  /// hooks see the clock it carries, and a raw receive takes it into
  /// `carried`.
  Status finish_op(EngineGuard& g, Rank r, const Done& done, Envelope& msg,
                   Bytes* out, bool run_hooks, CarriedClock* carried = nullptr);
  /// Try to match a newly arrived envelope against dst's posted receives
  /// (guard must cover shard dst). Returns true when matched (request
  /// completed).
  bool match_arrival(Rank dst, Envelope&& env);
  /// Rank r's receive matched `env`: releases a synchronous sender.
  void release_sender(Rank r, const Envelope& env);
  /// Completes posted record `rec` with `env` and wakes r.
  void complete_recv(Rank r, RequestRecord& rec, Envelope&& env);
  /// The record-free twin of complete_recv: takes queued message
  /// `msg_id` for a receive of r that matched it in its call.
  Envelope take_matched(Rank r, const Envelope* queued);

  /// Enter the blocked state and wait for `wait`. Returns false, without
  /// blocking, when the run has stopped, or once it stops while waiting:
  /// the caller returns to the facade, which throws AbortRun. A throw
  /// from here would cross every engine frame up to rank_body: on a
  /// 4-vCPU x86-64 VM (GCC 12, -O2) a throw caught one frame up costs
  /// about 3.5 us, and each further frame with a cleanup about 1.5 us
  /// more. Nearly every parked rank of an aborted run sits here.
  bool blocking_wait(EngineGuard& g, Rank r, const BlockDesc& desc,
                     const WaitOn& wait);
  /// Called right before a rank would block (or after it finishes); if
  /// every other live rank is already blocked, declares a deadlock.
  /// Escalates `g` to all shards for the scan (dropping and retaking it
  /// when it holds fewer). A no-op under schedulers that detect stalls
  /// themselves (coop): there a rank can be runnable-but-unscheduled,
  /// which this count-based check cannot see, so the scheduler's
  /// no-candidate scan is authoritative. The scan is thread-mode only: an
  /// unlocked engine reaching it is a bug (checked).
  void maybe_declare_deadlock(EngineGuard& g, Rank r);
  /// Declares the deadlock verdict; `g` must hold all shards.
  void declare_deadlock(EngineGuard& g);
  /// Watchdog verdict: a per-run budget expired. Idempotent; loses to an
  /// already-declared abort/deadlock. Takes the verdict mutex itself;
  /// callable with or without shards held.
  void declare_timeout(RunBudget budget, std::string reason);
  /// The stop check and budget accounting at MPI-call entry (the
  /// caller's shard held): counts the op and checks the op/wall budgets.
  /// Returns false when the run had stopped or this charge stopped it;
  /// the call then returns at once and its facade unwinds the rank. Two
  /// predicted branches when no budget is armed; the wall-clock read is
  /// amortized over a 32-op stride.
  bool charge_op();
  void abort_all();
  /// Records an error of rank r and stops the run.
  void record_error(Rank r, std::string message);
  [[noreturn]] void throw_program_error(EngineGuard& g, Rank r,
                                        const std::string& message);

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

  /// The policy's pick among wildcard candidates (0 for a lone one);
  /// takes policy_mu_ only when the engine is locked.
  std::size_t choose_wildcard(const std::vector<MatchCandidate>& cands);
  void validate_comm_member(EngineGuard& g, Rank r, CommId comm);
  std::uint64_t& seq_counter(PerRank& sender, Rank dst, CommId comm);
  /// The slot of collective (comm, gen), claiming a free one on first
  /// arrival (all shards held).
  CollSlot& coll_slot(CommId comm, std::uint64_t gen);
  /// Returns a slot whose last member departed to the free list.
  void release_coll_slot(CollSlot& slot);

  /// Publishes the run's engine.* metrics (pools, locks, envelopes,
  /// match scans).
  void publish_run_metrics();
  /// End-of-run reset (see the header comment). No rank is executing.
  void reset();
  /// Part of reset(): moves recycled buffers of pool `pool` from ranks
  /// with spares to ranks whose pools ran dry this run.
  void rebalance_buffers(BufferPool PerRank::* pool);

  PerRank& pr(Rank r) { return *ranks_[static_cast<std::size_t>(r)]; }

  /// Adds `n` to an engine-wide count and returns its prior value. Only
  /// ranks on several host threads (a locked engine) need the locked
  /// read-modify-write; on the unlocked coop engine one thread does
  /// every update, so a plain load and store suffice.
  template <class T>
  T bump(std::atomic<T>& count, T n) {
    if (lock_.locked()) return count.fetch_add(n, std::memory_order_acq_rel);
    const T prior = count.load(std::memory_order_relaxed);
    count.store(prior + n, std::memory_order_relaxed);
    return prior;
  }

  /// One rank's whole life: tool-stack setup, the program, finalize, and
  /// result accounting. Runs on whatever execution context (OS thread or
  /// fiber) the scheduler provides; must not leak exceptions into it.
  void rank_body(Rank r, const ProgramFn& program);

  RunOptions opts_;
  /// Built before lock_, whose mode follows sched_->single_threaded().
  std::unique_ptr<RankScheduler> sched_;
  EngineLock lock_;
  /// Built once; run() only re-arms the deadline fields.
  RankScheduler::Callbacks callbacks_;
  /// The program of the run in progress.
  const ProgramFn* program_ = nullptr;
  /// RunOptions::cancel subscription, held for the engine's lifetime.
  std::uint64_t cancel_sub_ = 0;
  std::vector<std::unique_ptr<PerRank>> ranks_;
  /// Each rank's wait condition while it is blocked (kNone exactly when
  /// it is not), written under the rank's shard; the scheduler evaluates
  /// it to wake the rank, and the deadlock scan so a
  /// satisfied-but-not-yet-woken rank is not misread as stuck.
  std::vector<WaitOn> waits_;
  /// Guarded by all-shards sections for writes; readers hold any shard
  /// (writers exclude them by holding every shard).
  CommTable comms_;
  /// choose() mutates the policy RNG; serialized by a leaf mutex so
  /// wildcard draws stay well-defined under sharded locking (skipped on
  /// an unlocked engine, see choose_wildcard).
  std::mutex policy_mu_;
  std::unique_ptr<MatchPolicy> policy_;
  /// Collective bookkeeping: only touched under all-shards sections.
  /// Every slot ever claimed (storage, kept across runs); the open ones
  /// by (comm, gen); the rest.
  std::vector<std::unique_ptr<CollSlot>> coll_slots_;
  IdMap<CollSlot*> open_coll_slots_;
  std::vector<CollSlot*> free_coll_slots_;
  /// Engine-wide counts, changed only through bump().
  std::atomic<std::uint64_t> next_msg_id_{1};
  std::atomic<int> blocked_count_{0};
  std::atomic<int> finished_count_{0};
  /// Set by every verdict that ends the run early: an error, a deadlock,
  /// a timeout or a cancel.
  std::atomic<bool> stopped_{false};
  std::atomic<bool> deadlocked_{false};
  std::atomic<bool> cancelled_{false};
  /// Leaf mutex (ordered after all shards) guarding the verdict strings,
  /// expired_, and one-winner arbitration between
  /// deadlock/timeout/cancel/error.
  std::mutex verdict_mu_;
  RunBudget expired_ = RunBudget::kNone;
  std::string stop_reason_;
  std::string deadlock_detail_;
  std::vector<ErrorInfo> errors_;
  bool budgets_armed_ = false;
  bool has_wall_deadline_ = false;
  bool deadline_is_campaigns_ = false;
  std::chrono::steady_clock::time_point run_deadline_{};
  std::atomic<std::uint64_t> ops_executed_{0};
  /// User calls that entered a rank's tool stack this run (every
  /// hooks_pre_* bumps it first): ToolCtx::call_seq.
  std::atomic<std::uint64_t> call_seq_{0};
  /// Per-rank slots are written under the owning rank's shard; the
  /// tool-message total is summed from PerRank::tool_messages.
  OpStats stats_;

  friend class ToolCtxImpl;
};

}  // namespace dampi::mpism
