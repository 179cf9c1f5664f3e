#include "mpism/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dampi::mpism {
namespace {

constexpr Tag kMaxUserTag = (1 << 30);

bool is_all_style(CollKind kind) {
  switch (kind) {
    case CollKind::kBarrier:
    case CollKind::kAllreduce:
    case CollKind::kAllgather:
    case CollKind::kAlltoall:
    case CollKind::kCommDup:
    case CollKind::kCommSplit:
    case CollKind::kCommFree:
      return true;
    case CollKind::kBcast:
    case CollKind::kScatter:
    case CollKind::kReduce:
    case CollKind::kGather:
      return false;
  }
  return true;
}

bool root_to_leaves(CollKind kind) {
  return kind == CollKind::kBcast || kind == CollKind::kScatter;
}

bool leaves_to_root(CollKind kind) {
  return kind == CollKind::kReduce || kind == CollKind::kGather;
}

/// Kinds whose members contribute CollUserData::single.
bool carries_single(CollKind kind) {
  return kind == CollKind::kBcast || kind == CollKind::kReduce ||
         kind == CollKind::kAllreduce || kind == CollKind::kGather ||
         kind == CollKind::kAllgather;
}

/// Kinds whose members contribute CollUserData::multi.
bool carries_multi(CollKind kind) {
  return kind == CollKind::kScatter || kind == CollKind::kAlltoall;
}

/// The open-slot key of collective (comm, gen).
std::uint64_t coll_key(CommId comm, std::uint64_t gen) {
  return (static_cast<std::uint64_t>(comm) << 40) | gen;
}

}  // namespace

// ---------------------------------------------------------------------------
// ToolCtx implementation
// ---------------------------------------------------------------------------

class ToolCtxImpl final : public ToolCtx {
 public:
  ToolCtxImpl(Engine& engine, Rank rank) : e_(&engine), r_(rank) {}

  Rank world_rank() const override { return r_; }
  int world_size() const override { return e_->world_size(); }
  int comm_size(CommId comm) const override { return e_->comm_size_of(comm); }
  Rank comm_rank(CommId comm) const override {
    return e_->comm_rank_of(comm, r_);
  }
  Rank to_world(CommId comm, Rank rel) const override {
    return e_->to_world(comm, rel);
  }
  Rank to_rel(CommId comm, Rank world) const override {
    return e_->to_rel(comm, world);
  }

  // Tool code cannot tell a raw service's placeholder result from a real
  // one, so a raw service of a stopped run unwinds the rank from here.
  Status raw_recv(Rank src, Tag tag, CommId comm, Bytes* out,
                  CarriedClock* carried) override {
    const Status status = e_->raw_recv(r_, src, tag, comm, out, carried);
    unwind_if_stopped();
    return status;
  }
  bool raw_iprobe(Rank src, Tag tag, CommId comm, Status* status) override {
    const bool found = e_->raw_iprobe(r_, src, tag, comm, status);
    unwind_if_stopped();
    return found;
  }
  void raw_barrier(CommId comm) override {
    e_->raw_barrier(r_, comm);
    unwind_if_stopped();
  }
  CommId raw_comm_dup(CommId comm) override {
    const CommId dup = e_->raw_comm_dup(r_, comm);
    unwind_if_stopped();
    return dup;
  }
  void add_cost(double us) override { e_->add_cost(r_, us); }
  void add_cost_times(double us, std::uint64_t times) override {
    e_->add_cost_times(r_, us, times);
  }
  void charge_arrival(double arrival_vtime) override {
    e_->charge_arrival(r_, arrival_vtime);
    unwind_if_stopped();
  }
  double vtime() const override { return e_->vtime_of(r_); }
  std::uint64_t call_seq() const override {
    return e_->call_seq_.load(std::memory_order_relaxed);
  }
  void fail_run(const std::string& message) override {
    e_->pr(r_).failed_by_tool = true;
    e_->record_error(r_, message);
  }

 private:
  void unwind_if_stopped() const {
    if (e_->stopped()) throw AbortRun{};
  }

  Engine* e_;
  Rank r_;
};

// ---------------------------------------------------------------------------
// Construction / run loop
// ---------------------------------------------------------------------------

Engine::Engine(RunOptions options)
    : opts_(std::move(options)),
      sched_(make_scheduler(opts_.sched, opts_.nprocs)),
      lock_(opts_.engine_lock, opts_.nprocs, sched_->single_threaded()) {
  DAMPI_CHECK(opts_.nprocs > 0);
  ranks_.reserve(static_cast<std::size_t>(opts_.nprocs));
  for (int i = 0; i < opts_.nprocs; ++i) {
    ranks_.push_back(std::make_unique<PerRank>());
    ranks_.back()->match = make_match_index(opts_.match);
    ranks_.back()->ctx = std::make_unique<ToolCtxImpl>(*this, i);
  }
  waits_.resize(static_cast<std::size_t>(opts_.nprocs));
  comms_.init(opts_.nprocs);
  policy_ = make_policy(opts_.policy, opts_.policy_seed);
  stats_.init(opts_.nprocs);

  callbacks_.body = [this](Rank r) { rank_body(r, *program_); };
  callbacks_.waits = waits_.data();
  callbacks_.stop = [this] { return stopped(); };
  callbacks_.on_stall = [this] {
    // Coop stall: every fiber is parked and the engine is unlocked, so
    // the all-shards guard takes nothing; the verdict mutex arbitrates
    // against a concurrent external cancel.
    EngineGuard all(lock_, EngineGuard::kAllShards);
    declare_deadlock(all);
  };
  // The armed wall deadline has passed: a cancel when it was the
  // campaign's, a timeout verdict when it was the run's own.
  callbacks_.on_deadline = [this] {
    if (deadline_is_campaigns_) {
      cancel("global wall budget exhausted");
    } else {
      declare_timeout(RunBudget::kWallDeadline,
                      strfmt("run wall deadline exceeded (%.3f s)",
                             opts_.max_run_wall_seconds));
    }
  };

  // Subscribe once for the engine's lifetime; if the source already
  // fired, this cancels on the spot and every rank of the first run
  // unwinds at its first MPI call (reset() re-arms later runs).
  if (opts_.cancel) {
    cancel_sub_ = opts_.cancel->subscribe(
        [this](const std::string& reason) { cancel(reason); });
  }
}

Engine::~Engine() {
  if (opts_.cancel) opts_.cancel->unsubscribe(cancel_sub_);
}

void Engine::set_tools(ToolSetup tools) {
  opts_.tools = std::move(tools);
  for (const auto& p : ranks_) p->tools.clear();
}

std::uint64_t Engine::pooled_live() const {
  std::uint64_t live = 0;
  for (const auto& p : ranks_) {
    live += p->req_pool.stats().live + p->match->pool_stats().live;
  }
  return live;
}

RunReport Engine::run(const ProgramFn& program) {
  RunReport report;
  run(program, &report);
  return report;
}

void Engine::run(const ProgramFn& program, RunReport* out,
                 std::chrono::steady_clock::time_point campaign_deadline) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  program_ = &program;
  run_deadline_ = campaign_deadline;
  if (opts_.max_run_wall_seconds > 0.0) {
    const Clock::time_point own =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(opts_.max_run_wall_seconds));
    run_deadline_ = campaign_deadline == Clock::time_point{}
                        ? own
                        : std::min(campaign_deadline, own);
  }
  deadline_is_campaigns_ = run_deadline_ == campaign_deadline;
  has_wall_deadline_ = run_deadline_ != Clock::time_point{};
  callbacks_.deadline = run_deadline_;
  budgets_armed_ = has_wall_deadline_ || opts_.max_ops > 0;
  sched_->run(callbacks_);

  RunReport& report = *out;
  report.completed = !stopped();
  report.deadlocked = deadlocked_.load(std::memory_order_acquire);
  report.errors = errors_;
  report.deadlock_detail = deadlock_detail_;
  report.expired = expired_;
  report.cancelled = cancelled_.load(std::memory_order_acquire);
  report.stop_reason = stop_reason_;
  report.vtime_us = 0.0;
  for (const auto& pr_ptr : ranks_) {
    report.vtime_us = std::max(report.vtime_us, pr_ptr->vt());
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  report.stats = stats_;
  report.stats.tool_messages = 0;
  report.messages_sent = 0;
  report.comm_leaks = 0;
  report.request_leaks = 0;
  for (const auto& pr_ptr : ranks_) {
    report.stats.tool_messages += pr_ptr->tool_messages;
    report.messages_sent += pr_ptr->messages_sent;
    if (report.completed) report.request_leaks += pr_ptr->request_leaks;
  }
  if (report.completed) report.comm_leaks = comms_.leaked_user_comms();

  // Once-per-run registry updates (off every per-op hot path).
  static obs::Counter& runs_metric =
      obs::Registry::instance().counter("engine.runs");
  static obs::Counter& messages_metric =
      obs::Registry::instance().counter("engine.messages_sent");
  static obs::Counter& deadlocks_metric =
      obs::Registry::instance().counter("engine.deadlocks");
  static obs::Counter& timeouts_metric =
      obs::Registry::instance().counter("engine.timed_out");
  static obs::Counter& cancelled_metric =
      obs::Registry::instance().counter("engine.cancelled");
  runs_metric.add(1);
  messages_metric.add(report.messages_sent);
  if (report.deadlocked) deadlocks_metric.add(1);
  if (report.timed_out()) timeouts_metric.add(1);
  if (report.cancelled) cancelled_metric.add(1);
  publish_run_metrics();
  reset();
}

void Engine::rebalance_buffers(BufferPool PerRank::* pool) {
  // Buffers travel with the messages: a sender's pool recycles what the
  // receiver's pool then has to acquire (payloads), or the other way
  // round (carried clocks), so one-directional traffic (servers handing
  // out work) fills some freelists and drains others, run after run.
  // With no rank executing, every rank whose pool ran dry this run is
  // topped up by its shortfall from ranks holding spares, so the same
  // traffic next run finds a buffer every time.
  std::size_t donor = 0;
  for (const auto& p : ranks_) {
    BufferPool& needy = (*p).*pool;
    for (std::int64_t need = needy.shortfall(); need > 0; --need) {
      while (donor < ranks_.size() &&
             ((*ranks_[donor]).*pool).shortfall() >= 0) {
        ++donor;
      }
      if (donor == ranks_.size() ||
          !((*ranks_[donor]).*pool).give_one(needy)) {
        return;
      }
    }
  }
}

void Engine::publish_run_metrics() {
  // Pool effectiveness: acquired vs freelist-reused. A warm steady state
  // shows reused converging on acquired (allocation-free matching).
  static obs::Counter& req_acquired_metric =
      obs::Registry::instance().counter("engine.pool.req_acquired");
  static obs::Counter& req_reused_metric =
      obs::Registry::instance().counter("engine.pool.req_reused");
  static obs::Counter& node_acquired_metric =
      obs::Registry::instance().counter("engine.pool.node_acquired");
  static obs::Counter& node_reused_metric =
      obs::Registry::instance().counter("engine.pool.node_reused");
  static obs::Counter& buf_acquired_metric =
      obs::Registry::instance().counter("engine.pool.buf_acquired");
  static obs::Counter& buf_reused_metric =
      obs::Registry::instance().counter("engine.pool.buf_reused");
  static obs::Counter& clock_acquired_metric =
      obs::Registry::instance().counter("engine.pool.clock_acquired");
  static obs::Counter& clock_reused_metric =
      obs::Registry::instance().counter("engine.pool.clock_reused");
  PoolCounts req_total;
  PoolCounts nodes;
  BufferPool::Stats buf_total;
  BufferPool::Stats clock_total;
  std::uint64_t inline_hits = 0;
  std::uint64_t heap_spills = 0;
  for (const auto& pr_ptr : ranks_) {
    inline_hits += pr_ptr->payload_inline_hits;
    heap_spills += pr_ptr->payload_heap_spills;
    req_total.acquired += pr_ptr->req_pool.stats().acquired;
    req_total.reused += pr_ptr->req_pool.stats().reused;
    const PoolCounts s = pr_ptr->match->pool_stats();
    nodes.acquired += s.acquired;
    nodes.reused += s.reused;
    buf_total.acquired += pr_ptr->buf_pool.stats().acquired;
    buf_total.reused += pr_ptr->buf_pool.stats().reused;
    clock_total.acquired += pr_ptr->clock_pool.stats().acquired;
    clock_total.reused += pr_ptr->clock_pool.stats().reused;
    pr_ptr->match->publish_scans();
  }
  req_acquired_metric.add(req_total.acquired);
  req_reused_metric.add(req_total.reused);
  node_acquired_metric.add(nodes.acquired);
  node_reused_metric.add(nodes.reused);
  buf_acquired_metric.add(buf_total.acquired);
  buf_reused_metric.add(buf_total.reused);
  clock_acquired_metric.add(clock_total.acquired);
  clock_reused_metric.add(clock_total.reused);

  // Lock-shard contention and envelope small-buffer effectiveness.
  static obs::Counter& lock_acquired_metric =
      obs::Registry::instance().counter("engine.lock.acquired");
  static obs::Counter& lock_contended_metric =
      obs::Registry::instance().counter("engine.lock.contended");
  static obs::Counter& lock_all_shards_metric =
      obs::Registry::instance().counter("engine.lock.all_shards");
  static obs::Counter& env_inline_metric =
      obs::Registry::instance().counter("engine.envelope.inline_hits");
  static obs::Counter& env_spill_metric =
      obs::Registry::instance().counter("engine.envelope.heap_spills");
  const EngineLock::Stats ls = lock_.stats();
  lock_acquired_metric.add(ls.acquires);
  lock_contended_metric.add(ls.contended);
  lock_all_shards_metric.add(ls.all_shards);
  env_inline_metric.add(inline_hits);
  env_spill_metric.add(heap_spills);
}

void Engine::reset() {
  rebalance_buffers(&PerRank::buf_pool);
  rebalance_buffers(&PerRank::clock_pool);
  for (const auto& p : ranks_) {
    PerRank& me = *p;
    // Every layer flushes and resets (no short-circuit); one that cannot
    // makes the whole stack rebuild at this rank's next start.
    bool keep = !me.tools.empty();
    for (const auto& t : me.tools) keep = t->reset_for_next_run() && keep;
    if (!keep) me.tools.clear();
    // Unconsumed requests (leaks, aborted runs) and unmatched messages
    // go back to the pools; the tables keep their capacity.
    me.reqs.clear(me.req_pool);
    me.match->reset();
    me.req_pool.reset_counts();
    me.buf_pool.reset_counts();
    me.clock_pool.reset_counts();
    me.seq_counters.clear();
    me.coll_gen.clear();
    me.vt_store(0.0);
    me.finished = false;
    me.failed_by_tool = false;
    me.block_desc = BlockDesc{};
    me.messages_sent = 0;
    me.tool_messages = 0;
    me.payload_inline_hits = 0;
    me.payload_heap_spills = 0;
    me.request_leaks = 0;
  }
  for (WaitOn& wait : waits_) wait = WaitOn{};
  open_coll_slots_.clear();
  free_coll_slots_.clear();
  for (const auto& slot : coll_slots_) {
    free_coll_slots_.push_back(slot.get());
  }
  comms_.init(opts_.nprocs);
  policy_->reset();
  stats_.init(opts_.nprocs);
  lock_.reset_stats();
  next_msg_id_.store(1, std::memory_order_relaxed);
  blocked_count_.store(0, std::memory_order_relaxed);
  finished_count_.store(0, std::memory_order_relaxed);
  ops_executed_.store(0, std::memory_order_relaxed);
  call_seq_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> vl(verdict_mu_);
    stopped_.store(false, std::memory_order_relaxed);
    deadlocked_.store(false, std::memory_order_relaxed);
    expired_ = RunBudget::kNone;
    cancelled_.store(false, std::memory_order_release);
    stop_reason_.clear();
    deadlock_detail_.clear();
    errors_.clear();
  }
  // A cancellation that fired during or after this run also ends the
  // next one on entry (outside the verdict mutex: reason() takes the
  // source's lock, which its callbacks hold while taking ours).
  if (opts_.cancel && opts_.cancel->requested()) {
    cancel(opts_.cancel->reason());
  }
  program_ = nullptr;
}

void Engine::rank_body(Rank r, const ProgramFn& program) {
  PerRank& me = pr(r);
  if (me.tools.empty() && opts_.tools.make_stack) {
    me.tools = opts_.tools.make_stack(r, opts_.nprocs);
  }

  bool finished_normally = false;
  try {
    hooks_init(r);
    Proc proc(*this, r);
    program(proc);
    hooks_finalize(r);
    finished_normally = true;
  } catch (const AbortRun&) {
    // The run stopped (a verdict, or this rank's own fault point, which
    // recorded its error) and the program has unwound.
  } catch (const ProgramFailure&) {
    // Error already recorded by throw_program_error / api_fail.
  } catch (const InternalError& e) {
    record_error(r, std::string("tool internal error: ") + e.what());
  } catch (const std::exception& e) {
    record_error(r, std::string("uncaught exception: ") + e.what());
  }

  EngineGuard g(lock_, r);
  me.finished = true;
  bump(finished_count_, 1);
  if (finished_normally && !stopped()) {
    me.reqs.for_each([&me](const RequestRecord& rec) {
      if (!rec.tool_internal) ++me.request_leaks;
    });
  }
  if (blocked_count_.load(std::memory_order_acquire) > 0) {
    maybe_declare_deadlock(g, r);
  }
}

// ---------------------------------------------------------------------------
// Blocking / abort machinery
// ---------------------------------------------------------------------------

Engine::BlockKind Engine::BlockDesc::kind() const {
  switch (op) {
    case Op::kSsend:
    case Op::kRecv:
    case Op::kWaitany: return BlockKind::kWait;
    case Op::kProbe: return BlockKind::kProbe;
    case Op::kColl: return BlockKind::kColl;
  }
  return BlockKind::kNone;
}

std::string Engine::BlockDesc::describe() const {
  switch (op) {
    case Op::kSsend: return strfmt("wait(ssend comm=%d)", comm);
    case Op::kRecv:
      return strfmt("wait(recv src=%d tag=%d comm=%d)", src, tag, comm);
    case Op::kWaitany: return "waitany";
    case Op::kProbe:
      return strfmt("probe(src=%d tag=%d comm=%d)", src, tag, comm);
    case Op::kColl:
      return strfmt("collective %s comm=%d gen=%llu", coll_kind_name(coll),
                    comm, static_cast<unsigned long long>(gen));
  }
  return "?";
}

bool Engine::blocking_wait(EngineGuard& g, Rank r, const BlockDesc& desc,
                           const WaitOn& wait) {
  if (wait.ready()) return true;
  if (stopped()) return false;
  PerRank& me = pr(r);
  const BlockKind kind = desc.kind();
  me.block_desc = desc;
  waits_[static_cast<std::size_t>(r)] = wait;
  bump(blocked_count_, 1);
  DAMPI_TEVENT(obs::EventKind::kBlock, obs::Phase::kBegin, r,
               static_cast<std::int32_t>(kind));
  maybe_declare_deadlock(g, r);
  sched_->block(g, r);
  DAMPI_TEVENT(obs::EventKind::kBlock, obs::Phase::kEnd, r,
               static_cast<std::int32_t>(kind));
  bump(blocked_count_, -1);
  waits_[static_cast<std::size_t>(r)] = WaitOn{};
  return !stopped();
}

void Engine::maybe_declare_deadlock(EngineGuard& g, Rank) {
  // Schedulers that run ranks to their blocking point detect stalls
  // exactly (no runnable candidate anywhere); the count below would
  // misfire there, because a runnable-but-unscheduled rank is neither
  // blocked nor finished — at large nprocs the last scheduled rank
  // blocking must not read "everyone is stuck".
  if (sched_->detects_stall()) return;
  DAMPI_CHECK_MSG(lock_.locked(),
                  "count-based deadlock scan on an unlocked engine");
  // A deadlock needs at least one blocked rank: without the > 0 guard,
  // "everyone finished" also sums to nprocs, and the escalation below
  // could reach that state if the last blocked rank wakes and finishes
  // between the caller's count read and the all-shards reacquisition.
  if (blocked_count_.load(std::memory_order_acquire) == 0 ||
      blocked_count_.load(std::memory_order_acquire) +
              finished_count_.load(std::memory_order_acquire) !=
          opts_.nprocs ||
      stopped()) {
    return;
  }
  // A rank whose wake condition already holds is merely late to wake, not
  // stuck; with eager matching no spontaneous events exist, so "all
  // blocked with no satisfied predicate" is an exact deadlock. The scan
  // reads every rank's block state, so it needs every shard: escalate if
  // this guard holds fewer, re-validating the counts afterwards (a peer
  // may have woken while we held nothing).
  if (g.all()) {
    for (const WaitOn& wait : waits_) {
      if (wait.ready()) return;
    }
    declare_deadlock(g);
    return;
  }
  g.unlock();
  {
    EngineGuard all(lock_, EngineGuard::kAllShards);
    // Re-validate the blocked > 0 guard too: the last blocked rank can
    // wake and finish while we held nothing, leaving blocked=0 and
    // finished=nprocs — the sum still matches, but that is a completed
    // run, not a deadlock (and the scan below would be vacuous).
    if (blocked_count_.load(std::memory_order_acquire) > 0 &&
        blocked_count_.load(std::memory_order_acquire) +
                finished_count_.load(std::memory_order_acquire) ==
            opts_.nprocs &&
        !stopped()) {
      bool satisfied = false;
      for (const WaitOn& wait : waits_) {
        if (wait.ready()) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) declare_deadlock(all);
    }
  }
  g.lock();
}

void Engine::declare_deadlock(EngineGuard& g) {
  DAMPI_CHECK(g.all());
  {
    // The verdict mutex arbitrates against a concurrent cancel/timeout:
    // exactly one of them wins and the rest become no-ops.
    std::lock_guard<std::mutex> vl(verdict_mu_);
    if (stopped()) return;
    DAMPI_TEVENT(obs::EventKind::kDeadlock, obs::Phase::kInstant);
    std::string detail;
    for (Rank r = 0; r < opts_.nprocs; ++r) {
      if (waits_[static_cast<std::size_t>(r)].kind != WaitOn::Kind::kNone) {
        detail += strfmt("rank %d blocked in %s\n", r,
                         pr(r).block_desc.describe().c_str());
      }
    }
    deadlock_detail_ = detail;
    deadlocked_.store(true, std::memory_order_relaxed);
    stopped_.store(true, std::memory_order_release);
  }
  sched_->wake_all();
}

void Engine::abort_all() {
  stopped_.store(true, std::memory_order_release);
  sched_->wake_all();
}

void Engine::declare_timeout(RunBudget budget, std::string reason) {
  {
    std::lock_guard<std::mutex> vl(verdict_mu_);
    if (stopped()) return;
    expired_ = budget;
    stop_reason_ = std::move(reason);
    DAMPI_TEVENT(obs::EventKind::kRunTimeout, obs::Phase::kInstant);
    stopped_.store(true, std::memory_order_release);
  }
  sched_->wake_all();
}

void Engine::cancel(const std::string& reason) {
  {
    std::lock_guard<std::mutex> vl(verdict_mu_);
    if (stopped()) return;
    cancelled_.store(true, std::memory_order_relaxed);
    stop_reason_ = reason.empty() ? "externally cancelled" : reason;
    DAMPI_TEVENT(obs::EventKind::kRunCancel, obs::Phase::kInstant);
    stopped_.store(true, std::memory_order_release);
  }
  sched_->wake_all();
}

bool Engine::charge_op() {
  if (stopped()) return false;
  if (!budgets_armed_) return true;
  const std::uint64_t ops = bump(ops_executed_, std::uint64_t{1}) + 1;
  if (opts_.max_ops > 0 && ops > opts_.max_ops) {
    declare_timeout(RunBudget::kOps,
                    strfmt("op budget exhausted (%llu ops)",
                           static_cast<unsigned long long>(opts_.max_ops)));
  } else if (has_wall_deadline_ && (ops & 31) == 0 &&
             std::chrono::steady_clock::now() >= run_deadline_) {
    // The clock read is amortized over 32 ops: a busy rank issues ops
    // microseconds apart, so the detection slack is negligible, while a
    // blocked rank is woken exactly at the deadline by the scheduler's
    // timed wait regardless of this stride.
    callbacks_.on_deadline();
  }
  return !stopped();
}

void Engine::record_error(Rank r, std::string message) {
  {
    std::lock_guard<std::mutex> vl(verdict_mu_);
    errors_.push_back({r, std::move(message)});
  }
  abort_all();
}

void Engine::throw_program_error(EngineGuard& g, Rank r,
                                 const std::string& message) {
  record_error(r, message);
  g.unlock();
  throw ProgramFailure{message};
}

// ---------------------------------------------------------------------------
// Matching engine primitives (owning shard(s) held)
// ---------------------------------------------------------------------------

std::uint64_t& Engine::seq_counter(PerRank& sender, Rank dst, CommId comm) {
  // Pack the pair; each component is comfortably below 2^20. The counter
  // map lives in the *sender's* PerRank (its shard serializes it), so the
  // old global (src, dst, comm) key drops the src component.
  const std::uint64_t key = (static_cast<std::uint64_t>(dst) << 20) |
                            static_cast<std::uint64_t>(comm);
  return sender.seq_counters[key];
}

void Engine::CollSlot::open(CommId c, std::uint64_t g) {
  comm = c;
  gen = g;
  kind = CollKind::kBarrier;
  root_world = -1;
  arrived = 0;
  departed = 0;
  root_arrived = false;
  max_arrival_vtime = 0.0;
  root_arrival_vtime = 0.0;
  op = ReduceOp::kSumU64;
  op_set = false;
  merged_pb_done = false;
  merged_pb.clear();
  reduced_done = false;
  reduced.clear();
  split_done = false;
  comm_of_member.clear();
  dup_comm = kCommNull;
}

Engine::CollSlot& Engine::coll_slot(CommId comm, std::uint64_t gen) {
  CollSlot*& slot = open_coll_slots_[coll_key(comm, gen)];
  if (slot != nullptr) return *slot;
  if (free_coll_slots_.empty()) {
    coll_slots_.push_back(std::make_unique<CollSlot>());
    slot = coll_slots_.back().get();
  } else {
    slot = free_coll_slots_.back();
    free_coll_slots_.pop_back();
  }
  slot->open(comm, gen);
  return *slot;
}

void Engine::release_coll_slot(CollSlot& slot) {
  open_coll_slots_.erase(coll_key(slot.comm, slot.gen));
  free_coll_slots_.push_back(&slot);
}

void Engine::do_isend(EngineGuard& g, Rank r, Rank dst_world,
                      const SendCall& call, Payload payload,
                      RequestRecord* sync_rec, SendInfo* info) {
  (void)g;  // Covers shards r and dst_world (EngineGuard::add).
  PerRank& me = pr(r);
  me.vt_add(opts_.cost.send_overhead_us +
            opts_.cost.send_per_byte_us * static_cast<double>(payload.size()));

  Envelope env;
  env.src_world = r;
  env.dst_world = dst_world;
  env.tag = call.tag;
  env.comm = call.comm;
  env.seq = seq_counter(me, dst_world, call.comm)++;
  env.msg_id = bump(next_msg_id_, std::uint64_t{1});
  env.arrival_vtime =
      me.vt() + opts_.cost.message_transit_us(payload.size());
  env.payload = std::move(payload);
  if (env.payload.is_inline()) {
    ++me.payload_inline_hits;
  } else {
    ++me.payload_heap_spills;
  }
  ++me.messages_sent;
  if (call.carry != nullptr) {
    env.carried.clock = me.clock_pool.copy_of(*call.carry);
    if (call.carry_charged) {
      // The clock's own message, sent right after its payload: charged
      // as that send would be, with the next message id, and arriving
      // one transit after its own injection.
      const double bytes = static_cast<double>(call.carry->size());
      me.vt_add(opts_.cost.send_overhead_us +
                opts_.cost.send_per_byte_us * bytes);
      bump(next_msg_id_, std::uint64_t{1});
      ++me.tool_messages;
      env.carried.arrival_vtime =
          me.vt() + opts_.cost.message_transit_us(call.carry->size());
    }
  }
  if (info != nullptr) {
    info->seq = env.seq;
    info->msg_id = env.msg_id;
    info->dst_world = dst_world;
  }

  if (sync_rec != nullptr) {
    env.sender_world = r;
    env.sender_rec = sync_rec;
  }
  match_arrival(dst_world, std::move(env));
}

bool Engine::match_arrival(Rank dst, Envelope&& env) {
  PerRank& receiver = pr(dst);
  // Earliest-posted compatible receive (the record stays owned by the
  // request table; completion does not consume it).
  RequestRecord* rec = receiver.match->match_posted(env);
  if (rec != nullptr) {
    DAMPI_TEVENT(obs::EventKind::kSendMatch, obs::Phase::kInstant,
                 env.src_world, env.dst_world, env.tag);
    complete_recv(dst, *rec, std::move(env));
    return true;
  }
  DAMPI_TEVENT(obs::EventKind::kSendQueued, obs::Phase::kInstant,
               env.src_world, env.dst_world, env.tag);
  receiver.match->push_unexpected(std::move(env));
  // A rank blocked in a probe may now have a matchable message.
  sched_->wake(dst);
  return false;
}

void Engine::release_sender(Rank r, const Envelope& env) {
  if (env.sender_rec != nullptr) {
    // Rendezvous: the matching receive releases the synchronous sender;
    // the release (ack) reaches it one latency after the match. The
    // sender's record is completed *cross-shard* through its atomics
    // (slab addresses are stable, and an incomplete send cannot be
    // consumed, so the record outlives this store): vtime first, then
    // the flag with release ordering — the sender's wake predicate
    // acquire-loads the flag.
    const Rank sender_world = env.sender_world;
    env.sender_rec->complete_vtime.store(
        std::max(pr(r).vt(), env.arrival_vtime) + opts_.cost.latency_us,
        std::memory_order_relaxed);
    env.sender_rec->complete.store(true, std::memory_order_release);
    sched_->wake(sender_world);
  }
}

Envelope Engine::take_matched(Rank r, const Envelope* queued) {
  Envelope msg = pr(r).match->take(queued);
  release_sender(r, msg);
  sched_->wake(r);
  return msg;
}

void Engine::complete_recv(Rank r, RequestRecord& rec, Envelope&& env) {
  release_sender(r, env);
  rec.msg = std::move(env);
  rec.complete.store(true, std::memory_order_release);
  sched_->wake(r);
}

const Envelope* Engine::match_queued(Rank r, Rank src_world, Tag tag,
                                     CommId comm) {
  PerRank& me = pr(r);
  if (src_world == kAnySource) {
    std::vector<MatchCandidate>& cands = me.cand_buf;
    me.match->wildcard_candidates(tag, comm, &cands);
    if (cands.empty()) return nullptr;
    const std::size_t pick = choose_wildcard(cands);
    DAMPI_CHECK(pick < cands.size());
    DAMPI_TEVENT(obs::EventKind::kRecvMatch, obs::Phase::kInstant,
                 cands[pick].src_world, r, cands[pick].tag);
    return cands[pick].env;
  }
  const Envelope* env = me.match->find_specific(src_world, tag, comm);
  if (env == nullptr) return nullptr;
  DAMPI_TEVENT(obs::EventKind::kRecvMatch, obs::Phase::kInstant,
               env->src_world, r, env->tag);
  return env;
}

RequestRecord& Engine::add_recv(Rank r, Rank src_world, Tag tag, CommId comm,
                                bool tool_internal) {
  PerRank& me = pr(r);
  RequestRecord& rec = me.reqs.add(me.req_pool);
  rec.kind = ReqKind::kRecv;
  rec.posted_src_world = src_world;
  rec.posted_tag = tag;
  rec.comm = comm;
  rec.tool_internal = tool_internal;
  return rec;
}

RequestId Engine::post_recv(Rank r, Rank src_world, Tag tag, CommId comm,
                            bool tool_internal) {
  RequestRecord& rec = add_recv(r, src_world, tag, comm, tool_internal);
  DAMPI_TEVENT(obs::EventKind::kRecvPost, obs::Phase::kInstant, src_world, 0,
               tag);
  pr(r).match->post_recv(&rec);
  return rec.id;
}

std::size_t Engine::choose_wildcard(
    const std::vector<MatchCandidate>& cands) {
  if (cands.size() < 2) return 0;
  // The policy RNG is engine-global mutable state; a leaf mutex keeps
  // wildcard draws well-defined under thread-mode locking.
  std::unique_lock<std::mutex> pl(policy_mu_, std::defer_lock);
  if (lock_.locked()) pl.lock();
  return policy_->choose(cands);
}

bool Engine::block_until_complete(EngineGuard& g, Rank r, RequestId req) {
  RequestRecord* rec = pr(r).reqs.find(req);
  DAMPI_CHECK(rec != nullptr);
  if (rec->complete.load(std::memory_order_acquire)) return true;
  BlockDesc desc;
  desc.comm = rec->comm;
  if (rec->kind == ReqKind::kSend) {
    desc.op = BlockDesc::Op::kSsend;
  } else {
    desc.op = BlockDesc::Op::kRecv;
    desc.src = rec->posted_src_world;
    desc.tag = rec->posted_tag;
  }
  WaitOn wait;
  wait.kind = WaitOn::Kind::kRequest;
  wait.rec = rec;
  return blocking_wait(g, r, desc, wait);
}

Status Engine::finish_request(EngineGuard& g, Rank r, RequestId req, Bytes* out,
                              bool run_hooks, CarriedClock* carried) {
  PerRank& me = pr(r);
  // Take the record out of the table so hook-issued raw operations
  // cannot invalidate it; the guard returns it to the pool.
  RequestRecord* taken = me.reqs.take(req);
  DAMPI_CHECK_MSG(taken != nullptr, "request vanished during completion");
  PoolPtr<RequestRecord> rec(taken, PoolDeleter<RequestRecord>(&me.req_pool));
  DAMPI_CHECK(rec->complete.load(std::memory_order_acquire));
  Done done;
  done.id = rec->id;
  done.kind = rec->kind;
  done.comm = rec->comm;
  done.posted_src_world = rec->posted_src_world;
  done.posted_tag = rec->posted_tag;
  done.complete_vtime = rec->complete_vtime.load(std::memory_order_relaxed);
  return finish_op(g, r, done, rec->msg, out, run_hooks, carried);
}

Status Engine::finish_op(EngineGuard& g, Rank r, const Done& done,
                         Envelope& msg, Bytes* out, bool run_hooks,
                         CarriedClock* carried) {
  PerRank& me = pr(r);
  Status status;
  // A synchronous send's completion waits for the remote match.
  me.vt_floor(done.complete_vtime);
  if (done.kind == ReqKind::kRecv) {
    me.vt_store(std::max(me.vt(), msg.arrival_vtime) +
                opts_.cost.recv_overhead_us);
    status.source = comms_.to_rel(done.comm, msg.src_world);
    status.tag = msg.tag;
    status.bytes = msg.payload.size();
    status.seq = msg.seq;
    status.msg_id = msg.msg_id;
  }

  if (run_hooks) {
    ReqCompletion completion;
    completion.id = done.id;
    completion.kind = done.kind;
    completion.comm = done.comm;
    completion.posted_src =
        done.kind == ReqKind::kRecv
            ? comms_.to_rel(done.comm, done.posted_src_world)
            : kAnySource;
    if (done.posted_src_world == kAnySource) completion.posted_src = kAnySource;
    completion.posted_tag = done.posted_tag;
    completion.src_world = msg.src_world;
    completion.tag = msg.tag;
    completion.seq = msg.seq;
    completion.msg_id = msg.msg_id;
    completion.status = status;
    // Materialize the payload (hooks mutate it in place — piggyback
    // strip) straight into the receiver's buffer when there is one; pool
    // access stays inside the critical section.
    const bool deliver = done.kind == ReqKind::kRecv && out != nullptr;
    Bytes dropped;
    Bytes& hook_payload = deliver ? *out : dropped;
    msg.payload.release_into(&hook_payload, &me.buf_pool);
    completion.payload = &hook_payload;
    completion.carried = &msg.carried;
    g.unlock();
    hooks_post_wait(r, completion);
    g.lock();
    status = completion.status;
    // Dropped payload: keep its capacity for the next internal copy.
    if (!deliver) me.buf_pool.recycle(std::move(dropped));
  } else if (done.kind == ReqKind::kRecv) {
    if (out != nullptr) {
      msg.payload.release_into(out, &me.buf_pool);
    } else {
      msg.payload.recycle_into(me.buf_pool);
    }
    if (carried != nullptr) {
      carried->clock.swap(msg.carried.clock);
      carried->arrival_vtime = msg.carried.arrival_vtime;
    }
  }
  // The carried clock's buffer (or the one swapped for it) stays here.
  me.clock_pool.recycle(std::move(msg.carried.clock));
  return status;
}

// ---------------------------------------------------------------------------
// Proc-facing API
// ---------------------------------------------------------------------------

void Engine::validate_comm_member(EngineGuard& g, Rank r, CommId comm) {
  if (!comms_.valid(comm)) {
    throw_program_error(g, r,
                        strfmt("operation on invalid communicator %d", comm));
  }
  if (!comms_.get(comm).contains_world(r)) {
    throw_program_error(
        g, r, strfmt("rank %d is not a member of communicator %d", r, comm));
  }
}

RequestId Engine::send_impl(Rank r, SendCall& call, bool synchronous,
                            bool keep_record) {
  hooks_pre_isend(r, call);

  EngineGuard g(lock_, r);
  if (!charge_op()) return kNullRequest;
  validate_comm_member(g, r, call.comm);
  if (call.tag < 0 || call.tag > kMaxUserTag) {
    throw_program_error(g, r, strfmt("invalid send tag %d", call.tag));
  }
  const int csize = comms_.get(call.comm).size();
  if (call.dst < 0 || call.dst >= csize) {
    throw_program_error(g, r, strfmt("send to invalid rank %d", call.dst));
  }
  PerRank& me = pr(r);
  stats_.bump(OpCategory::kSendRecv, r);
  me.vt_add(opts_.cost.local_op_us);
  const Rank dst_world = comms_.to_world(call.comm, call.dst);
  // Delivering into dst's queues needs its shard too. add() may drop and
  // reacquire to respect lock ordering; nothing resolved above is held by
  // reference across it, and the comm cannot be freed meanwhile (freeing
  // is collective over its members, which include the rank sending here).
  g.add(dst_world);
  // Eager sends complete on injection; synchronous sends only when
  // matched (rendezvous). A kept record must still be consumed by
  // wait/test — unconsumed send requests are leaks.
  RequestId id = kNullRequest;
  RequestRecord* rec = nullptr;
  if (keep_record) {
    rec = &me.reqs.add(me.req_pool);
    rec->kind = ReqKind::kSend;
    rec->comm = call.comm;
    rec->complete.store(!synchronous, std::memory_order_relaxed);
    id = rec->id;
  } else {
    id = me.reqs.issue();
  }
  SendInfo info;
  do_isend(g, r, dst_world, call,
           Payload(std::move(*call.payload), &me.buf_pool),
           synchronous ? rec : nullptr, &info);
  g.unlock();
  hooks_post_isend(r, call, id, info);
  return id;
}

RequestId Engine::api_isend(Rank r, Rank dst, Tag tag, Bytes payload,
                            CommId comm, bool blocking, bool synchronous) {
  SendCall call;
  call.dst = dst;
  call.tag = tag;
  call.comm = comm;
  call.payload = &payload;
  call.blocking = blocking;
  return send_impl(r, call, synchronous, /*keep_record=*/true);
}

void Engine::api_send(Rank r, Rank dst, Tag tag, Bytes payload, CommId comm) {
  SendCall call;
  call.dst = dst;
  call.tag = tag;
  call.comm = comm;
  call.payload = &payload;
  call.blocking = true;
  Done done;
  done.id = send_impl(r, call, /*synchronous=*/false, /*keep_record=*/false);
  done.comm = call.comm;

  // The uncounted wait of a blocking send, on a send that completed when
  // it was injected.
  EngineGuard g(lock_, r);
  if (!charge_op()) return;
  pr(r).vt_add(opts_.cost.local_op_us);
  Envelope no_msg;
  finish_op(g, r, done, no_msg, nullptr, /*run_hooks=*/true);
}

bool Engine::enter_recv(EngineGuard& g, Rank r, const RecvCall& call,
                        Rank* src_world) {
  if (!charge_op()) return false;
  validate_comm_member(g, r, call.comm);
  if (call.tag < kAnyTag || call.tag > kMaxUserTag) {
    throw_program_error(g, r, strfmt("invalid recv tag %d", call.tag));
  }
  const int csize = comms_.get(call.comm).size();
  if (call.src != kAnySource && (call.src < 0 || call.src >= csize)) {
    throw_program_error(g, r, strfmt("recv from invalid rank %d", call.src));
  }
  stats_.bump(OpCategory::kSendRecv, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  *src_world = comms_.to_world(call.comm, call.src);
  return true;
}

RequestId Engine::api_irecv(Rank r, Rank src, Tag tag, CommId comm,
                            bool blocking) {
  RecvCall call;
  call.src = src;
  call.tag = tag;
  call.comm = comm;
  call.blocking = blocking;
  hooks_pre_irecv(r, call);

  EngineGuard g(lock_, r);
  Rank src_world = kAnySource;
  if (!enter_recv(g, r, call, &src_world)) return kNullRequest;
  const Envelope* queued = match_queued(r, src_world, call.tag, call.comm);
  RequestId id = kNullRequest;
  if (queued == nullptr) {
    id = post_recv(r, src_world, call.tag, call.comm, false);
  } else {
    RequestRecord& rec = add_recv(r, src_world, call.tag, call.comm, false);
    complete_recv(r, rec, pr(r).match->take(queued));
    id = rec.id;
  }
  g.unlock();
  hooks_post_irecv(r, call, id);
  return id;
}

Status Engine::api_recv(Rank r, Rank src, Tag tag, CommId comm, Bytes* out) {
  RecvCall call;
  call.src = src;
  call.tag = tag;
  call.comm = comm;
  call.blocking = true;
  hooks_pre_irecv(r, call);

  EngineGuard g(lock_, r);
  Rank src_world = kAnySource;
  if (!enter_recv(g, r, call, &src_world)) return {};
  const Envelope* queued = match_queued(r, src_world, call.tag, call.comm);
  if (queued == nullptr) {
    // Nothing to match yet: post a record and wait on it.
    const RequestId id = post_recv(r, src_world, call.tag, call.comm, false);
    g.unlock();
    hooks_post_irecv(r, call, id);
    return api_wait(r, id, out, /*count_stat=*/false);
  }
  Envelope msg = take_matched(r, queued);
  PerRank& me = pr(r);
  Done done;
  done.id = me.reqs.issue();
  done.kind = ReqKind::kRecv;
  done.comm = call.comm;
  done.posted_src_world = src_world;
  done.posted_tag = call.tag;
  g.unlock();
  hooks_post_irecv(r, call, done.id);

  // The uncounted wait of a blocking receive, on one already matched.
  g.lock();
  if (!charge_op()) return {};
  me.vt_add(opts_.cost.local_op_us);
  return finish_op(g, r, done, msg, out, /*run_hooks=*/true);
}

Status Engine::api_wait(Rank r, RequestId req, Bytes* out, bool count_stat) {
  if (count_stat) hooks_pre_wait(r, req);

  EngineGuard g(lock_, r);
  if (!charge_op()) return {};
  if (pr(r).reqs.find(req) == nullptr) {
    throw_program_error(g, r, "wait on invalid or consumed request");
  }
  if (count_stat) stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  if (!block_until_complete(g, r, req)) return {};
  return finish_request(g, r, req, out, /*run_hooks=*/true);
}

bool Engine::api_test(Rank r, RequestId req, Status* status, Bytes* out) {
  hooks_pre_wait(r, req);

  EngineGuard g(lock_, r);
  if (!charge_op()) return false;
  RequestRecord* found = pr(r).reqs.find(req);
  if (found == nullptr) {
    throw_program_error(g, r, "test on invalid or consumed request");
  }
  stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  if (!found->complete.load(std::memory_order_acquire)) {
    // A failed poll is a scheduling point: under run-to-block execution
    // the polling rank must cede the host or a test loop starves the
    // very ranks that would complete the request.
    sched_->yield(g, r);
    return false;
  }
  Status st = finish_request(g, r, req, out, /*run_hooks=*/true);
  if (status != nullptr) *status = st;
  return true;
}

void Engine::api_waitall(Rank r, std::span<RequestId> reqs) {
  if (!reqs.empty()) hooks_pre_wait(r, reqs[0]);
  bool first = true;
  for (RequestId& req : reqs) {
    if (req == kNullRequest) continue;
    EngineGuard g(lock_, r);
    if (!charge_op()) return;
    if (pr(r).reqs.find(req) == nullptr) {
      throw_program_error(g, r, "waitall on invalid or consumed request");
    }
    if (first) {
      stats_.bump(OpCategory::kWait, r);
      pr(r).vt_add(opts_.cost.local_op_us);
      first = false;
    }
    if (!block_until_complete(g, r, req)) return;
    finish_request(g, r, req, nullptr, /*run_hooks=*/true);
    req = kNullRequest;
    g.unlock();
  }
}

std::size_t Engine::api_waitany(Rank r, std::span<RequestId> reqs,
                                Status* status, Bytes* out) {
  if (!reqs.empty()) hooks_pre_wait(r, reqs[0]);

  EngineGuard g(lock_, r);
  if (!charge_op()) return reqs.size();
  stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);

  std::vector<RequestRecord*>& recs = pr(r).wait_buf;
  recs.assign(reqs.size(), nullptr);
  bool any_live = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i] == kNullRequest) continue;
    RequestRecord* found = pr(r).reqs.find(reqs[i]);
    if (found == nullptr) {
      throw_program_error(g, r, "waitany on invalid or consumed request");
    }
    recs[i] = found;
    any_live = true;
  }
  if (!any_live) {
    throw_program_error(g, r, "waitany with no live requests");
  }
  auto ready_index = [&recs]() -> std::size_t {
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i] != nullptr &&
          recs[i]->complete.load(std::memory_order_acquire)) {
        return i;
      }
    }
    return recs.size();
  };
  WaitOn wait;
  wait.kind = WaitOn::Kind::kAnyRequest;
  wait.recs = recs.data();
  wait.count = recs.size();
  if (!blocking_wait(g, r, BlockDesc{BlockDesc::Op::kWaitany}, wait)) {
    return reqs.size();
  }
  const std::size_t idx = ready_index();
  DAMPI_CHECK(idx < recs.size());
  Status st = finish_request(g, r, reqs[idx], out, /*run_hooks=*/true);
  if (status != nullptr) *status = st;
  reqs[idx] = kNullRequest;
  return idx;
}

bool Engine::api_testall(Rank r, std::span<RequestId> reqs) {
  if (!reqs.empty()) hooks_pre_wait(r, reqs[0]);
  EngineGuard g(lock_, r);
  if (!charge_op()) return false;
  stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  for (const RequestId req : reqs) {
    if (req == kNullRequest) continue;
    RequestRecord* found = pr(r).reqs.find(req);
    if (found == nullptr) {
      throw_program_error(g, r, "testall on invalid or consumed request");
    }
    if (!found->complete.load(std::memory_order_acquire)) {
      // MPI: consume all or none.
      sched_->yield(g, r);
      return false;
    }
  }
  for (RequestId& req : reqs) {
    if (req == kNullRequest) continue;
    finish_request(g, r, req, nullptr, /*run_hooks=*/true);
    req = kNullRequest;
  }
  return true;
}

std::size_t Engine::api_testany(Rank r, std::span<RequestId> reqs,
                                Status* status, Bytes* out) {
  if (!reqs.empty()) hooks_pre_wait(r, reqs[0]);
  EngineGuard g(lock_, r);
  if (!charge_op()) return reqs.size();
  stats_.bump(OpCategory::kWait, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i] == kNullRequest) continue;
    RequestRecord* found = pr(r).reqs.find(reqs[i]);
    if (found == nullptr) {
      throw_program_error(g, r, "testany on invalid or consumed request");
    }
    if (found->complete.load(std::memory_order_acquire)) {
      Status st = finish_request(g, r, reqs[i], out, /*run_hooks=*/true);
      if (status != nullptr) *status = st;
      reqs[i] = kNullRequest;
      return i;
    }
  }
  sched_->yield(g, r);
  return reqs.size();
}

Status Engine::api_probe(Rank r, Rank src, Tag tag, CommId comm, bool* flag) {
  ProbeCall call;
  call.src = src;
  call.tag = tag;
  call.comm = comm;
  call.blocking = (flag == nullptr);
  hooks_pre_probe(r, call);

  EngineGuard g(lock_, r);
  if (!charge_op()) return {};
  validate_comm_member(g, r, call.comm);
  stats_.bump(OpCategory::kSendRecv, r);
  pr(r).vt_add(opts_.cost.local_op_us);
  const Rank src_world = comms_.to_world(call.comm, call.src);

  WaitOn exists;
  exists.kind = WaitOn::Kind::kMessage;
  exists.match = pr(r).match.get();
  exists.src_world = src_world;
  exists.tag = call.tag;
  exists.comm = call.comm;

  bool found = exists.ready();
  if (!found && call.blocking) {
    BlockDesc desc;
    desc.op = BlockDesc::Op::kProbe;
    desc.src = call.src;
    desc.tag = call.tag;
    desc.comm = call.comm;
    if (!blocking_wait(g, r, desc, exists)) return {};
    found = true;
  } else if (!found) {
    sched_->yield(g, r);  // iprobe miss: see api_test
  }

  Status status;
  if (found) {
    const Envelope* env = nullptr;
    if (src_world == kAnySource) {
      std::vector<MatchCandidate>& cands = pr(r).cand_buf;
      pr(r).match->wildcard_candidates(call.tag, call.comm, &cands);
      DAMPI_CHECK(!cands.empty());
      env = cands[choose_wildcard(cands)].env;
    } else {
      env = pr(r).match->find_specific(src_world, call.tag, call.comm);
    }
    DAMPI_CHECK(env != nullptr);
    status.source = comms_.to_rel(call.comm, env->src_world);
    status.tag = env->tag;
    status.bytes = env->payload.size();
    status.seq = env->seq;
    status.msg_id = env->msg_id;
    pr(r).vt_store(std::max(pr(r).vt(), env->arrival_vtime) +
                   opts_.cost.local_op_us);
  }
  g.unlock();
  hooks_post_probe(r, call, found, status);
  if (flag != nullptr) *flag = found;
  return status;
}

// ---------------------------------------------------------------------------
// Collectives (all shards held: slot state and the comm table are global)
// ---------------------------------------------------------------------------

Bytes Engine::apply_reduce(EngineGuard& g, Rank r, const CollSlot& slot,
                           const CommRecord& comm_rec) {
  const std::size_t n = slot.data.empty() ? 0 : slot.data[0].size();
  for (const Bytes& b : slot.data) {
    if (b.size() != n) {
      throw_program_error(g, r, "reduce contributions differ in length");
    }
  }
  if (n % 8 != 0) {
    throw_program_error(g, r, "reduce contribution not a multiple of 8");
  }
  const std::size_t words = n / 8;
  const bool is_f64 = slot.op == ReduceOp::kSumF64 ||
                      slot.op == ReduceOp::kMaxF64 ||
                      slot.op == ReduceOp::kMinF64;
  Bytes out = pr(r).buf_pool.copy_of(slot.data[0]);
  for (int m = 1; m < comm_rec.size(); ++m) {
    const Bytes& in = slot.data[static_cast<std::size_t>(m)];
    for (std::size_t w = 0; w < words; ++w) {
      if (is_f64) {
        double a, b;
        std::memcpy(&a, out.data() + w * 8, 8);
        std::memcpy(&b, in.data() + w * 8, 8);
        switch (slot.op) {
          case ReduceOp::kSumF64: a += b; break;
          case ReduceOp::kMaxF64: a = std::max(a, b); break;
          case ReduceOp::kMinF64: a = std::min(a, b); break;
          default: break;
        }
        std::memcpy(out.data() + w * 8, &a, 8);
      } else {
        std::uint64_t a, b;
        std::memcpy(&a, out.data() + w * 8, 8);
        std::memcpy(&b, in.data() + w * 8, 8);
        switch (slot.op) {
          case ReduceOp::kSumU64: a += b; break;
          case ReduceOp::kMaxU64: a = std::max(a, b); break;
          case ReduceOp::kMinU64: a = std::min(a, b); break;
          default: break;
        }
        std::memcpy(out.data() + w * 8, &a, 8);
      }
    }
  }
  return out;
}

void Engine::compute_slot_results(CollSlot& slot, const CommRecord& comm_rec,
                                  CollKind kind) {
  if (slot.split_done) return;
  slot.split_done = true;
  if (kind == CollKind::kCommDup) {
    slot.dup_comm = comms_.create(comm_rec.members, /*tool_internal=*/false);
    return;
  }
  // comm_split: group members by color, order by (key, world rank).
  slot.comm_of_member.assign(static_cast<std::size_t>(comm_rec.size()),
                             kCommNull);
  std::map<int, std::vector<std::pair<int, Rank>>> groups;
  for (int m = 0; m < comm_rec.size(); ++m) {
    const int color = slot.colors[static_cast<std::size_t>(m)];
    if (color < 0) continue;  // MPI_UNDEFINED
    groups[color].push_back({slot.keys[static_cast<std::size_t>(m)],
                             comm_rec.members[static_cast<std::size_t>(m)]});
  }
  for (auto& [color, entries] : groups) {
    std::sort(entries.begin(), entries.end());
    std::vector<Rank> members;
    members.reserve(entries.size());
    for (auto& [key, world] : entries) members.push_back(world);
    const CommId id = comms_.create(members, /*tool_internal=*/false);
    for (int m = 0; m < comm_rec.size(); ++m) {
      if (slot.colors[static_cast<std::size_t>(m)] == color) {
        slot.comm_of_member[static_cast<std::size_t>(m)] = id;
      }
    }
  }
}

CollUserResult Engine::collective_impl(Rank r, CollKind kind, CommId comm,
                                       Rank root_rel, CollUserData data,
                                       Bytes pb_contribution,
                                       bool tool_internal,
                                       CollResult* tool_result) {
  EngineGuard g(lock_, EngineGuard::kAllShards);
  if (tool_internal ? stopped() : !charge_op()) return {};
  validate_comm_member(g, r, comm);
  DAMPI_TEVENT(obs::EventKind::kCollective, obs::Phase::kBegin,
               static_cast<std::int32_t>(kind), comm);
  // Records are address-stable for the run: the table may grow while we
  // wait, and freeing is itself collective over this rank.
  const CommRecord& comm_rec = comms_.get(comm);
  const int size = comm_rec.size();
  const Rank cr = comm_rec.world_to_comm[static_cast<std::size_t>(r)];
  const bool rooted = root_to_leaves(kind) || leaves_to_root(kind);
  if (rooted && (root_rel < 0 || root_rel >= size)) {
    throw_program_error(g, r, strfmt("invalid collective root %d", root_rel));
  }
  const Rank root_world = rooted ? comm_rec.members[static_cast<std::size_t>(
                                       root_rel)]
                                 : -1;

  if (!tool_internal) {
    stats_.bump(OpCategory::kCollective, r);
  }
  pr(r).vt_add(opts_.cost.local_op_us);

  std::vector<std::uint64_t>& gens = pr(r).coll_gen;
  if (static_cast<std::size_t>(comm) >= gens.size()) {
    gens.resize(static_cast<std::size_t>(comm) + 1, 0);
  }
  const std::uint64_t gen = gens[static_cast<std::size_t>(comm)]++;
  CollSlot& slot = coll_slot(comm, gen);
  const auto members = static_cast<std::size_t>(size);
  if (slot.arrived == 0) {
    slot.kind = kind;
    slot.root_world = root_world;
    slot.pb.resize(members);
    if (carries_single(kind)) slot.data.resize(members);
    if (carries_multi(kind)) slot.multi.resize(members);
    if (kind == CollKind::kCommSplit) {
      slot.colors.assign(members, 0);
      slot.keys.assign(members, 0);
    }
  } else {
    if (slot.kind != kind || slot.root_world != root_world) {
      throw_program_error(
          g, r,
          strfmt("collective mismatch on comm %d: rank %d called %s but the "
                 "operation in flight is %s",
                 comm, r, coll_kind_name(kind), coll_kind_name(slot.kind)));
    }
  }
  if (kind == CollKind::kReduce || kind == CollKind::kAllreduce) {
    if (slot.op_set && slot.op != data.op) {
      throw_program_error(g, r, "mismatched reduce operators");
    }
    slot.op = data.op;
    slot.op_set = true;
  }
  if (kind == CollKind::kScatter && cr == root_rel &&
      static_cast<int>(data.multi.size()) != size) {
    throw_program_error(g, r, "scatter requires one slice per member");
  }
  if (kind == CollKind::kAlltoall &&
      static_cast<int>(data.multi.size()) != size) {
    throw_program_error(g, r, "alltoall requires one slice per member");
  }

  const auto me = static_cast<std::size_t>(cr);
  slot.pb[me] = std::move(pb_contribution);
  if (carries_single(kind)) slot.data[me] = std::move(data.single);
  if (carries_multi(kind)) slot.multi[me] = std::move(data.multi);
  if (kind == CollKind::kCommSplit) {
    slot.colors[me] = data.color;
    slot.keys[me] = data.key;
  }
  ++slot.arrived;
  slot.max_arrival_vtime = std::max(slot.max_arrival_vtime, pr(r).vt());
  if (rooted && cr == root_rel) {
    slot.root_arrived = true;
    slot.root_arrival_vtime = pr(r).vt();
  }

  // Wake members whose completion predicate may have flipped.
  const bool all_arrived = slot.arrived == size;
  if (is_all_style(kind) && all_arrived) {
    for (Rank w : comm_rec.members) sched_->wake(w);
  } else if (root_to_leaves(kind) && slot.root_arrived && cr == root_rel) {
    for (Rank w : comm_rec.members) sched_->wake(w);
  } else if (leaves_to_root(kind) && all_arrived) {
    sched_->wake(root_world);
  }

  // Completion condition for this rank: everyone's arrival, except that
  // a rooted fan-out's leaves wait only for the root, and its root and a
  // fan-in's leaves do not wait at all.
  const bool waits_for_root = root_to_leaves(kind) && cr != root_rel;
  const bool waits_at_all = is_all_style(kind) || waits_for_root ||
                            (leaves_to_root(kind) && cr == root_rel);
  if (waits_at_all) {
    WaitOn wait;
    wait.kind = WaitOn::Kind::kCollective;
    wait.arrived = &slot.arrived;
    wait.want = size;
    if (waits_for_root) wait.root_arrived = &slot.root_arrived;
    BlockDesc desc;
    desc.op = BlockDesc::Op::kColl;
    desc.coll = kind;
    desc.comm = comm;
    desc.gen = gen;
    if (!blocking_wait(g, r, desc, wait)) return {};
  }

  // Completion virtual time.
  const double coll_cost = opts_.cost.collective_us(size);
  double done_vtime;
  if (is_all_style(kind)) {
    done_vtime = slot.max_arrival_vtime + coll_cost;
  } else if (root_to_leaves(kind)) {
    done_vtime = cr == root_rel
                     ? pr(r).vt() + coll_cost
                     : std::max(pr(r).vt(),
                                slot.root_arrival_vtime + coll_cost);
  } else {  // leaves_to_root
    done_vtime = cr == root_rel ? slot.max_arrival_vtime + coll_cost
                                : pr(r).vt() + coll_cost;
  }
  pr(r).vt_floor(done_vtime);

  // Extract user-visible results.
  BufferPool& bufs = pr(r).buf_pool;
  CollUserResult result;
  switch (kind) {
    case CollKind::kBarrier:
      break;
    case CollKind::kBcast:
      result.single =
          bufs.copy_of(slot.data[static_cast<std::size_t>(root_rel)]);
      break;
    case CollKind::kReduce:
      if (cr == root_rel) {
        if (!slot.reduced_done) {
          slot.reduced = apply_reduce(g, r, slot, comm_rec);
          slot.reduced_done = true;
        }
        result.single = bufs.copy_of(slot.reduced);
      }
      break;
    case CollKind::kAllreduce:
      if (!slot.reduced_done) {
        slot.reduced = apply_reduce(g, r, slot, comm_rec);
        slot.reduced_done = true;
      }
      result.single = bufs.copy_of(slot.reduced);
      break;
    case CollKind::kGather:
      if (cr == root_rel) result.multi = slot.data;
      break;
    case CollKind::kScatter: {
      const auto& slices = slot.multi[static_cast<std::size_t>(root_rel)];
      result.single = bufs.copy_of(slices[static_cast<std::size_t>(cr)]);
      break;
    }
    case CollKind::kAllgather:
      result.multi = slot.data;
      break;
    case CollKind::kAlltoall: {
      result.multi.resize(static_cast<std::size_t>(size));
      for (int m = 0; m < size; ++m) {
        const auto& their = slot.multi[static_cast<std::size_t>(m)];
        if (static_cast<int>(their.size()) == size) {
          result.multi[static_cast<std::size_t>(m)] =
              bufs.copy_of(their[static_cast<std::size_t>(cr)]);
        }
      }
      break;
    }
    case CollKind::kCommFree:
      // All members have arrived (all-style); release the communicator
      // exactly once.
      if (!slot.split_done) {
        slot.split_done = true;
        comms_.free(comm);
      }
      break;
    case CollKind::kCommDup:
    case CollKind::kCommSplit: {
      compute_slot_results(slot, comm_rec, kind);
      if (kind == CollKind::kCommDup) {
        result.new_comm = slot.dup_comm;
        if (tool_internal) {
          // Tool shadow communicators are exempt from leak accounting.
          // compute_slot_results created it as a user comm for the first
          // departer; flip the flag exactly once.
          // (All participants of a raw_comm_dup are tool-internal calls.)
        }
      } else {
        result.new_comm = slot.comm_of_member[static_cast<std::size_t>(cr)];
      }
      break;
    }
  }

  // Piggyback routing for tool layers.
  if (tool_result != nullptr) {
    tool_result->new_comm = result.new_comm;
    auto any_pb = [&slot]() {
      for (const Bytes& b : slot.pb) {
        if (!b.empty()) return true;
      }
      return false;
    };
    if (is_all_style(kind) || (leaves_to_root(kind) && cr == root_rel)) {
      if (!slot.merged_pb_done && any_pb()) {
        DAMPI_CHECK_MSG(static_cast<bool>(opts_.tools.coll_merge),
                        "collective piggyback requires a merge function");
        // The contributions move (nothing reads slot.pb once merged);
        // the slot recycles them when the last member departs.
        slot.present.clear();
        for (Bytes& b : slot.pb) {
          if (!b.empty()) slot.present.push_back(std::move(b));
        }
        slot.merged_pb = opts_.tools.coll_merge(slot.present);
        slot.merged_pb_done = true;
      }
      if (slot.merged_pb_done) {
        tool_result->has_incoming = true;
        tool_result->incoming = bufs.copy_of(slot.merged_pb);
      }
    } else if (root_to_leaves(kind) && cr != root_rel) {
      const Bytes& root_pb = slot.pb[static_cast<std::size_t>(root_rel)];
      if (!root_pb.empty()) {
        tool_result->has_incoming = true;
        tool_result->incoming = bufs.copy_of(root_pb);
      }
    }
  }

  ++slot.departed;
  if (slot.departed == size) {
    // The slot's scratch buffers are dead; keep their capacity so the
    // next collective round's contributions and copies do not allocate.
    for (Bytes& b : slot.pb) bufs.recycle(std::move(b));
    for (Bytes& b : slot.data) bufs.recycle(std::move(b));
    for (auto& v : slot.multi) {
      for (Bytes& b : v) bufs.recycle(std::move(b));
    }
    for (Bytes& b : slot.present) bufs.recycle(std::move(b));
    bufs.recycle(std::move(slot.merged_pb));
    bufs.recycle(std::move(slot.reduced));
    slot.pb.clear();
    slot.data.clear();
    slot.multi.clear();
    release_coll_slot(slot);
  }
  DAMPI_TEVENT(obs::EventKind::kCollective, obs::Phase::kEnd,
               static_cast<std::int32_t>(kind), comm);
  return result;
}

CollUserResult Engine::api_collective(Rank r, CollKind kind, CommId comm,
                                      Rank root, CollUserData data) {
  CollCall call;
  call.kind = kind;
  call.comm = comm;
  call.root = root;
  hooks_pre_collective(r, call);
  CollResult tool_result;
  CollUserResult result =
      collective_impl(r, kind, call.comm, call.root, std::move(data),
                      std::move(call.pb_contribution), false, &tool_result);
  if (stopped()) return {};
  hooks_post_collective(r, call, tool_result);
  if (tool_result.incoming.capacity() != 0) {
    // The routed piggyback copy is dead: keep its capacity.
    EngineGuard g(lock_, r);
    pr(r).buf_pool.recycle(std::move(tool_result.incoming));
  }
  return result;
}

void Engine::api_comm_free(Rank r, CommId comm) {
  // MPI_Comm_free is collective over the communicator: synchronize all
  // members (all-style), then release it exactly once.
  {
    EngineGuard g(lock_, r);
    if (stopped()) return;
    if (comm == kCommWorld) {
      throw_program_error(g, r, "cannot free MPI_COMM_WORLD");
    }
    if (!comms_.valid(comm)) {
      throw_program_error(g, r,
                          strfmt("freeing invalid communicator %d", comm));
    }
    g.unlock();
  }
  api_collective(r, CollKind::kCommFree, comm, 0, {});
}

void Engine::api_pcontrol(Rank r, int level, const std::string& what) {
  {
    EngineGuard g(lock_, r);
    if (!charge_op()) return;
    stats_.bump(OpCategory::kOther, r);
    pr(r).vt_add(opts_.cost.local_op_us);
  }
  hooks_pcontrol(r, level, what);
}

void Engine::api_compute(Rank r, double us) {
  EngineGuard g(lock_, r);
  if (!charge_op()) return;
  pr(r).vt_add(us);
}

void Engine::api_fail(Rank r, const std::string& message) {
  record_error(r, message);
  throw ProgramFailure{message};
}

// ---------------------------------------------------------------------------
// Translation / introspection
// ---------------------------------------------------------------------------
//
// Comm-table writers hold *all* shards, so holding any one shard yields a
// consistent read; these rank-less accessors pin shard 0. (Global mode:
// shard 0 is the one mutex, preserving the old behaviour exactly.)

int Engine::comm_size_of(CommId comm) {
  EngineGuard g(lock_, Rank{0});
  return comms_.get(comm).size();
}

Rank Engine::comm_rank_of(CommId comm, Rank world) {
  EngineGuard g(lock_, Rank{0});
  return comms_.to_rel(comm, world);
}

Rank Engine::to_world(CommId comm, Rank rel) {
  EngineGuard g(lock_, Rank{0});
  return comms_.to_world(comm, rel);
}

Rank Engine::to_rel(CommId comm, Rank world) {
  EngineGuard g(lock_, Rank{0});
  return comms_.to_rel(comm, world);
}

// ---------------------------------------------------------------------------
// Raw (tool) operations
// ---------------------------------------------------------------------------

Status Engine::raw_recv(Rank r, Rank src, Tag tag, CommId comm, Bytes* out,
                        CarriedClock* carried) {
  EngineGuard g(lock_, r);
  if (stopped()) return {};
  const Rank src_world = comms_.to_world(comm, src);
  const Envelope* queued = match_queued(r, src_world, tag, comm);
  if (queued == nullptr) {
    const RequestId req = post_recv(r, src_world, tag, comm, true);
    if (!block_until_complete(g, r, req)) return {};
    return finish_request(g, r, req, out, /*run_hooks=*/false, carried);
  }
  Envelope msg = take_matched(r, queued);
  Done done;
  done.kind = ReqKind::kRecv;
  done.comm = comm;
  done.posted_src_world = src_world;
  done.posted_tag = tag;
  return finish_op(g, r, done, msg, out, /*run_hooks=*/false, carried);
}

bool Engine::raw_iprobe(Rank r, Rank src, Tag tag, CommId comm,
                        Status* status) {
  EngineGuard g(lock_, r);
  if (stopped()) return false;
  const Rank src_world = comms_.to_world(comm, src);
  const Envelope* env = nullptr;
  if (src_world == kAnySource) {
    std::vector<MatchCandidate>& cands = pr(r).cand_buf;
    pr(r).match->wildcard_candidates(tag, comm, &cands);
    if (!cands.empty()) {
      // Deterministic head (lowest source) — tool drains need no policy.
      env = cands.front().env;
    }
  } else {
    env = pr(r).match->find_specific(src_world, tag, comm);
  }
  if (env == nullptr) {
    sched_->yield(g, r);
    return false;
  }
  if (status != nullptr) {
    status->source = comms_.to_rel(comm, env->src_world);
    status->tag = env->tag;
    status->bytes = env->payload.size();
    status->seq = env->seq;
    status->msg_id = env->msg_id;
  }
  return true;
}

void Engine::raw_barrier(Rank r, CommId comm) {
  collective_impl(r, CollKind::kBarrier, comm, 0, {}, {},
                  /*tool_internal=*/true, nullptr);
}

CommId Engine::raw_comm_dup(Rank r, CommId comm) {
  CollUserResult result = collective_impl(r, CollKind::kCommDup, comm, 0, {},
                                          {}, /*tool_internal=*/true, nullptr);
  if (stopped()) return kCommNull;
  // Mark the product tool-internal (exempt from leak accounting). Every
  // participant executes this; the flag write is idempotent. Comm-table
  // writes take the all-shards section.
  EngineGuard g(lock_, EngineGuard::kAllShards);
  comms_.mark_tool_internal(result.new_comm);
  return result.new_comm;
}

void Engine::add_cost(Rank r, double us) {
  // Called by tools in rank r's own execution context: the clock is
  // single-writer, so this needs no shard.
  pr(r).vt_add(us);
}

void Engine::add_cost_times(Rank r, double us, std::uint64_t times) {
  PerRank& me = pr(r);
  for (std::uint64_t i = 0; i < times; ++i) me.vt_add(us);
}

void Engine::charge_arrival(Rank r, double arrival_vtime) {
  if (stopped()) return;
  PerRank& me = pr(r);
  me.vt_store(std::max(me.vt(), arrival_vtime) + opts_.cost.recv_overhead_us);
}

double Engine::vtime_of(Rank r) { return pr(r).vt(); }

// ---------------------------------------------------------------------------
// Tool hook dispatch (no shards held: hooks may re-enter)
// ---------------------------------------------------------------------------
//
// A pre_* hook that stops the run (ToolCtx::fail_run) hides the call from
// the layers below it; a run stopped by anything else still passes the
// call down the whole stack before the engine refuses it.

void Engine::hooks_init(Rank r) {
  auto& tools = pr(r).tools;
  for (auto& t : tools) t->on_init(*pr(r).ctx);
}

void Engine::hooks_finalize(Rank r) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->on_finalize(*pr(r).ctx);
  }
}

void Engine::hooks_pre_isend(Rank r, SendCall& call) {
  PerRank& me = pr(r);
  bump(call_seq_, std::uint64_t{1});
  for (auto& t : me.tools) {
    t->pre_isend(*me.ctx, call);
    if (me.failed_by_tool) return;
  }
}

void Engine::hooks_post_isend(Rank r, const SendCall& call, RequestId id,
                              const SendInfo& info) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_isend(*pr(r).ctx, call, id, info);
  }
}

void Engine::hooks_pre_irecv(Rank r, RecvCall& call) {
  PerRank& me = pr(r);
  bump(call_seq_, std::uint64_t{1});
  for (auto& t : me.tools) {
    t->pre_irecv(*me.ctx, call);
    if (me.failed_by_tool) return;
  }
}

void Engine::hooks_post_irecv(Rank r, const RecvCall& call, RequestId id) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_irecv(*pr(r).ctx, call, id);
  }
}

void Engine::hooks_pre_wait(Rank r, RequestId id) {
  PerRank& me = pr(r);
  bump(call_seq_, std::uint64_t{1});
  for (auto& t : me.tools) {
    t->pre_wait(*me.ctx, id);
    if (me.failed_by_tool) return;
  }
}

void Engine::hooks_post_wait(Rank r, ReqCompletion& completion) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_wait(*pr(r).ctx, completion);
  }
}

void Engine::hooks_pre_probe(Rank r, ProbeCall& call) {
  PerRank& me = pr(r);
  bump(call_seq_, std::uint64_t{1});
  for (auto& t : me.tools) {
    t->pre_probe(*me.ctx, call);
    if (me.failed_by_tool) return;
  }
}

void Engine::hooks_post_probe(Rank r, const ProbeCall& call, bool flag,
                              Status& status) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_probe(*pr(r).ctx, call, flag, status);
  }
}

void Engine::hooks_pre_collective(Rank r, CollCall& call) {
  PerRank& me = pr(r);
  bump(call_seq_, std::uint64_t{1});
  for (auto& t : me.tools) {
    t->pre_collective(*me.ctx, call);
    if (me.failed_by_tool) return;
  }
}

void Engine::hooks_post_collective(Rank r, const CollCall& call,
                                   const CollResult& result) {
  auto& tools = pr(r).tools;
  for (auto it = tools.rbegin(); it != tools.rend(); ++it) {
    (*it)->post_collective(*pr(r).ctx, call, result);
  }
}

void Engine::hooks_pcontrol(Rank r, int level, const std::string& what) {
  for (auto& t : pr(r).tools) t->on_pcontrol(*pr(r).ctx, level, what);
}

// ---------------------------------------------------------------------------
// Runtime wrapper
// ---------------------------------------------------------------------------

Runtime::Runtime(RunOptions options)
    : engine_(std::make_unique<Engine>(std::move(options))) {}

Runtime::~Runtime() = default;

RunReport Runtime::run(const ProgramFn& program) {
  return engine_->run(program);
}

}  // namespace dampi::mpism
