#include "mpism/scheduler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Sanitizers instrument the OS-thread stack; a fiber switch moves
// execution onto an mmap'd stack they know nothing about, so shadow state
// corrupts (TSan) or redzones fire (ASan). Rather than annotate fibers we
// fall back to ThreadScheduler in sanitized builds — the coop paths are
// exercised by the unsanitized tier-1 stages.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DAMPI_COOP_UNSUPPORTED 1
#endif
#if !defined(DAMPI_COOP_UNSUPPORTED) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DAMPI_COOP_UNSUPPORTED 1
#endif
#endif

// ---------------------------------------------------------------------------
// Fiber switch primitive.
//
// On x86-64 a fiber switch saves only what the SysV ABI makes callee-saved
// — rbx, rbp, r12–r15, rsp, the MXCSR and the x87 control word — on the
// outgoing stack and restores the same from the incoming one. It never
// enters the kernel: glibc's swapcontext saves and restores the signal
// mask with an rt_sigprocmask syscall on every switch, and a replay makes
// dozens of switches. A fresh fiber's stack holds a hand-built frame that
// "returns" into dampi_fiber_start, which calls entry(arg) (passed in r13
// and r12) with the stack 16-byte aligned as the ABI requires. Elsewhere
// swapcontext stays the switch.
// ---------------------------------------------------------------------------
#if defined(__x86_64__)
extern "C" {
__attribute__((visibility("hidden"))) void dampi_fiber_switch(void** save_sp,
                                                              void* load_sp);
__attribute__((visibility("hidden"))) void dampi_fiber_start();
}

asm(R"(
  .pushsection .text
  .globl dampi_fiber_switch
  .hidden dampi_fiber_switch
  .type dampi_fiber_switch, @function
  .p2align 4
dampi_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size dampi_fiber_switch, .-dampi_fiber_switch

  .globl dampi_fiber_start
  .hidden dampi_fiber_start
  .type dampi_fiber_start, @function
  .p2align 4
dampi_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size dampi_fiber_start, .-dampi_fiber_start
  .popsection
)");

namespace dampi::mpism {
namespace {

struct FiberContext {
  void* sp = nullptr;
};

void switch_context(FiberContext* from, FiberContext* to) {
  dampi_fiber_switch(&from->sp, to->sp);
}

/// Lays out the nine words dampi_fiber_switch pops — x87 control word,
/// MXCSR, r15, r14, r13 = entry, r12 = arg, rbx, rbp = 0, return address
/// = dampi_fiber_start — 16 bytes below the aligned stack top, so that
/// after its `ret` rsp is top - 16, 16-byte aligned. The fiber starts
/// with the creating thread's floating-point modes.
void make_context(FiberContext* ctx, char* stack, std::size_t bytes,
                  void (*entry)(void*), void* arg) {
  const std::uintptr_t top =
      reinterpret_cast<std::uintptr_t>(stack + bytes) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 16 - 9 * 8);
  std::uint16_t fpu_cw = 0;
  std::uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  frame[0] = fpu_cw;
  frame[1] = mxcsr;
  frame[2] = 0;  // r15
  frame[3] = 0;  // r14
  frame[4] = reinterpret_cast<std::uint64_t>(entry);  // r13
  frame[5] = reinterpret_cast<std::uint64_t>(arg);    // r12
  frame[6] = 0;  // rbx
  frame[7] = 0;  // rbp: ends frame-pointer walks
  frame[8] = reinterpret_cast<std::uint64_t>(&dampi_fiber_start);
  ctx->sp = frame;
}
#else
#include <ucontext.h>

namespace dampi::mpism {
namespace {

struct FiberContext {
  ucontext_t uc = {};
};

void switch_context(FiberContext* from, FiberContext* to) {
  swapcontext(&from->uc, &to->uc);
}

/// makecontext passes int arguments only, so entry and arg each travel
/// as two 32-bit halves.
void start_trampoline(int entry_hi, int entry_lo, int arg_hi, int arg_lo) {
  const auto join = [](int hi, int lo) {
    return (static_cast<std::uintptr_t>(static_cast<std::uint32_t>(hi))
            << 32) |
           static_cast<std::uintptr_t>(static_cast<std::uint32_t>(lo));
  };
  reinterpret_cast<void (*)(void*)>(join(entry_hi, entry_lo))(
      reinterpret_cast<void*>(join(arg_hi, arg_lo)));
}

void make_context(FiberContext* ctx, char* stack, std::size_t bytes,
                  void (*entry)(void*), void* arg) {
  getcontext(&ctx->uc);
  ctx->uc.uc_stack.ss_sp = stack;
  ctx->uc.uc_stack.ss_size = bytes;
  ctx->uc.uc_link = nullptr;
  const auto e = reinterpret_cast<std::uintptr_t>(entry);
  const auto a = reinterpret_cast<std::uintptr_t>(arg);
  makecontext(&ctx->uc, reinterpret_cast<void (*)()>(&start_trampoline), 4,
              static_cast<int>(static_cast<std::uint32_t>(e >> 32)),
              static_cast<int>(static_cast<std::uint32_t>(e)),
              static_cast<int>(static_cast<std::uint32_t>(a >> 32)),
              static_cast<int>(static_cast<std::uint32_t>(a)));
}
#endif

// ---------------------------------------------------------------------------
// Fiber stacks.
//
// Every fiber stack is kFiberStackBytes mmap'd with a PROT_NONE guard page
// below it, so a rank that recurses past its stack dies with SIGSEGV
// instead of overwriting whatever lies below. Stacks are reused through a
// per-thread cache: a scheduler takes one on each fiber's first dispatch
// and hands all of them back when it is destroyed, so a thread replaying
// thousands of runs maps its stacks once and then takes no page faults on
// them. The cache keeps as many stacks as the thread's largest run used
// and unmaps them when the thread exits.
// ---------------------------------------------------------------------------

constexpr std::size_t kFiberStackBytes = 256 * 1024;

class StackCache {
 public:
  StackCache() : guard_bytes_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {}
  ~StackCache() {
    for (char* stack : free_) munmap(stack - guard_bytes_, mapping_bytes());
  }
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;

  /// The low end of a kFiberStackBytes usable stack.
  char* take() {
    if (!free_.empty()) {
      char* stack = free_.back();
      free_.pop_back();
      return stack;
    }
    void* base = mmap(nullptr, mapping_bytes(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    DAMPI_CHECK_MSG(base != MAP_FAILED, "coop scheduler: fiber stack mmap");
    DAMPI_CHECK_MSG(mprotect(base, guard_bytes_, PROT_NONE) == 0,
                    "coop scheduler: fiber stack guard page");
    static obs::Counter& mapped_metric =
        obs::Registry::instance().counter("scheduler.stacks_mapped");
    mapped_metric.add(1);
    return static_cast<char*>(base) + guard_bytes_;
  }

  void give(char* stack) { free_.push_back(stack); }

 private:
  std::size_t mapping_bytes() const { return guard_bytes_ + kFiberStackBytes; }

  std::size_t guard_bytes_;
  std::vector<char*> free_;
};

/// Function-local so it is constructed on the thread's first coop run and
/// destroyed at thread exit, after every scheduler that ran there.
StackCache& stack_cache() {
  thread_local StackCache cache;
  return cache;
}

// ---------------------------------------------------------------------------
// ThreadScheduler: one OS thread per rank, per-rank eventcount waiters
// (the engine's original execution model, kept for differential testing
// and for sanitized builds).
//
// The park/wake protocol is an eventcount rather than a cv-on-the-engine
// -mutex because the engine mutex may be *sharded*: a waker completing a
// rendezvous or declaring a verdict publishes through atomics without
// holding the sleeper's shard, so the sleeper cannot rely on "predicate
// flips happen under my lock". Instead each rank has {mutex, cv, gen}:
//
//   parker:  check pred (guard held) → snapshot gen (waiter mutex) →
//            re-check pred → drop guard → wait until gen != snapshot →
//            retake guard → loop
//   waker:   { lock waiter mutex; ++gen; } notify_all()
//
// The post-snapshot re-check closes the race with atomic-published
// state: if the waker bumped gen before our snapshot, the waiter-mutex
// acquire synchronizes-with its release, making the published state
// visible to the re-check; if it bumps after, the wait observes the gen
// change. Shard-published state is simpler still — the waker needs our
// shard, which we hold until the park actually drops it.
// ---------------------------------------------------------------------------

class ThreadScheduler final : public RankScheduler {
 public:
  explicit ThreadScheduler(int nprocs)
      : nprocs_(nprocs),
        waiters_(std::make_unique<Waiter[]>(static_cast<std::size_t>(nprocs))) {
  }

  void run(const Callbacks& cb) override {
    cb_ = &cb;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nprocs_));
    for (Rank r = 0; r < nprocs_; ++r) {
      threads.emplace_back([r, &cb] {
        log::set_thread_rank(r);
        DAMPI_TRACE_THREAD_LANE(strfmt("rank %d", r));
        cb.body(r);
      });
    }
    for (auto& t : threads) t.join();
  }

  void block(EngineGuard& g, Rank r) override {
    Waiter& w = waiters_[static_cast<std::size_t>(r)];
    // An untimed wait is enough even for deadline-armed runs: a parked
    // rank never has to notice the deadline itself. If any peer is still
    // issuing ops, its budget charge declares the timeout within a
    // 32-op stride and the abort wakes everyone here via stop(); if no
    // peer is, the stall detector declares deadlock. Timed waits cost
    // ~150ns each on the message critical path, so they stay out of it.
    for (;;) {
      if (cb_->wake_ready(r) || cb_->stop()) return;
      std::uint64_t gen;
      {
        std::lock_guard<std::mutex> wl(w.mu);
        gen = w.gen;
      }
      // Re-check after the snapshot: a waker that bumped gen first has
      // its published state made visible by the w.mu acquire above.
      if (cb_->wake_ready(r) || cb_->stop()) return;
      g.unlock();
      {
        std::unique_lock<std::mutex> wl(w.mu);
        w.cv.wait(wl, [&w, gen] { return w.gen != gen; });
      }
      g.lock();
    }
  }

  void wake(Rank r) override {
    Waiter& w = waiters_[static_cast<std::size_t>(r)];
    {
      std::lock_guard<std::mutex> wl(w.mu);
      ++w.gen;
    }
    w.cv.notify_all();
  }

  void wake_all() override {
    for (Rank r = 0; r < nprocs_; ++r) wake(r);
  }

  bool detects_stall() const override { return false; }
  const char* name() const override { return "thread"; }

 private:
  struct alignas(64) Waiter {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t gen = 0;
  };

  int nprocs_;
  std::unique_ptr<Waiter[]> waiters_;
  const Callbacks* cb_ = nullptr;
};

// ---------------------------------------------------------------------------
// CoopScheduler: one fiber per rank, all multiplexed onto the thread that
// called run(). A fiber executes until its rank blocks in an
// MPI operation (block() swaps back here), then the policy picks the
// next runnable rank. Everything the policy consumes — fiber states,
// wake hints, predicate results — is a deterministic function of program
// behaviour, so a (policy, seed) pair fixes the entire interleaving.
//
// The dispatch loop runs without any engine lock: fibers and the loop
// share one OS thread, so rank state reads race only with external
// cancellation — which publishes through atomics by contract. Fibers
// release their engine guard before swapping back (block/yield) and
// retake it on resume.
// ---------------------------------------------------------------------------

class CoopScheduler final : public RankScheduler {
 public:
  CoopScheduler(const SchedOptions& options, int nprocs)
      : opts_(options),
        nprocs_(nprocs),
        rng_(options.seed),
        fibers_(static_cast<std::size_t>(nprocs)) {
    if (opts_.pick == SchedPolicy::kPriority) {
      // Static per-rank priorities drawn once from the seed; ties are
      // impossible in practice (64-bit draws) but break toward the
      // lower rank for full determinism anyway.
      Rng prio_rng(opts_.seed);
      priorities_.reserve(fibers_.size());
      for (int i = 0; i < nprocs_; ++i) {
        priorities_.push_back(prio_rng.next_u64());
      }
    }
  }

  ~CoopScheduler() override {
    for (Fiber& f : fibers_) {
      if (f.lane != nullptr) obs::Tracer::instance().release(f.lane);
      if (f.stack != nullptr) stack_cache().give(f.stack);
    }
  }

  void run(const Callbacks& cb) override {
    cb_ = &cb;
    if (obs::trace_on()) {
      for (Rank r = 0; r < nprocs_; ++r) {
        fibers_[static_cast<std::size_t>(r)].lane =
            obs::Tracer::instance().acquire(strfmt("rank %d", r));
      }
    }
    std::uint64_t switches = 0;
    const bool has_deadline =
        cb.deadline != std::chrono::steady_clock::time_point{};
    while (finished_ < nprocs_) {
      // Run-to-block execution has exactly one preemption point — this
      // dispatch loop — so the per-run deadline is checked here. This
      // is what catches a livelocked spinner that only ever yields
      // (never blocks): every yield funnels back through this loop.
      // The clock read is amortized over 64 dispatches; a spinner
      // cycles through here fast enough that the slack is microseconds.
      if (has_deadline && (switches & 63) == 0 && !cb.stop() &&
          std::chrono::steady_clock::now() >= cb.deadline) {
        cb.on_deadline();
      }
      const Rank r = pick();
      DAMPI_CHECK_MSG(r >= 0, "coop scheduler: no dispatchable rank");
      dispatch(r);
      ++switches;
    }
    for (Fiber& f : fibers_) {
      if (f.lane != nullptr) {
        obs::Tracer::instance().release(f.lane);
        f.lane = nullptr;
      }
    }
    static obs::Counter& runs_metric =
        obs::Registry::instance().counter("scheduler.coop_runs");
    static obs::Counter& switches_metric =
        obs::Registry::instance().counter("scheduler.switches");
    static obs::Counter& stalls_metric =
        obs::Registry::instance().counter("scheduler.stalls");
    runs_metric.add(1);
    switches_metric.add(switches);
    stalls_metric.add(stalls_);
  }

  void block(EngineGuard& g, Rank r) override {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    while (!(cb_->wake_ready(r) || cb_->stop())) {
      f.state = State::kBlocked;
      // The fiber must release its engine guard before swapping: the
      // next dispatched rank may need the same shard, and it runs on
      // this very OS thread.
      g.unlock();
      switch_context(&f.ctx, &sched_ctx_);
      g.lock();
    }
  }

  void yield(EngineGuard& g, Rank r) override {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.state = State::kYielded;
    g.unlock();
    switch_context(&f.ctx, &sched_ctx_);
    g.lock();
  }

  void wake(Rank r) override {
    fibers_[static_cast<std::size_t>(r)].hint.store(
        true, std::memory_order_relaxed);
  }

  void wake_all() override {
    for (Fiber& f : fibers_) f.hint.store(true, std::memory_order_relaxed);
  }

  bool detects_stall() const override { return true; }

  const char* name() const override {
    switch (opts_.pick) {
      case SchedPolicy::kRoundRobin: return "coop-rr";
      case SchedPolicy::kRandomSeeded: return "coop-random";
      case SchedPolicy::kPriority: return "coop-priority";
    }
    return "coop";
  }

 private:
  enum class State { kUnstarted, kRunning, kBlocked, kYielded, kFinished };

  struct Fiber {
    State state = State::kUnstarted;
    /// Wake-hint: a wake() targeted this rank since it last ran. Purely
    /// an optimization — candidates are re-validated against the wake
    /// predicate, and an empty hinted set triggers a full scan. Atomic
    /// because external cancellation calls wake_all from its own thread.
    std::atomic<bool> hint{false};
    /// Taken from the thread's stack cache on first dispatch, so
    /// unstarted ranks cost nothing; returned when the scheduler dies.
    char* stack = nullptr;
    FiberContext ctx;
    obs::Lane* lane = nullptr;
  };

  /// Selects the next rank to dispatch, declaring a stall first if
  /// nothing is runnable. Returns -1 only when every rank has finished
  /// (the run loop exits before asking again).
  Rank pick() {
    candidates_.clear();
    const bool stopping = cb_->stop();
    bool any_unfinished = false;
    for (Rank r = 0; r < nprocs_; ++r) {
      Fiber& f = fibers_[static_cast<std::size_t>(r)];
      if (f.state == State::kFinished) continue;
      any_unfinished = true;
      if (stopping || f.state == State::kUnstarted ||
          f.state == State::kYielded) {
        // Stopping releases every parked rank so it can observe the
        // abort and unwind; unstarted and poll-yielded ranks are always
        // runnable.
        candidates_.push_back(r);
      } else if (f.hint.load(std::memory_order_relaxed) &&
                 cb_->wake_ready(r)) {
        candidates_.push_back(r);
      }
    }
    if (!any_unfinished) return -1;
    if (candidates_.empty()) {
      // Hints are conservative; a predicate can flip without a wake()
      // (e.g. a probe whose candidate set grew via an unrelated path).
      // Re-scan every blocked rank before concluding anything.
      for (Rank r = 0; r < nprocs_; ++r) {
        const Fiber& f = fibers_[static_cast<std::size_t>(r)];
        if (f.state == State::kBlocked && cb_->wake_ready(r)) {
          candidates_.push_back(r);
        }
      }
    }
    if (candidates_.empty()) {
      // Every live rank is blocked with a false predicate: with eager
      // matching nothing can make progress — an exact deadlock. The
      // engine marks the run stopped, after which all parked ranks
      // become dispatchable and unwind.
      ++stalls_;
      cb_->on_stall();
      DAMPI_CHECK_MSG(cb_->stop(), "on_stall must stop the run");
      for (Rank r = 0; r < nprocs_; ++r) {
        if (fibers_[static_cast<std::size_t>(r)].state != State::kFinished) {
          candidates_.push_back(r);
        }
      }
    }
    return choose_from_candidates();
  }

  Rank choose_from_candidates() {
    DAMPI_CHECK(!candidates_.empty());
    switch (opts_.pick) {
      case SchedPolicy::kRoundRobin: {
        for (Rank r : candidates_) {
          if (r >= rr_cursor_) {
            rr_cursor_ = (r + 1) % nprocs_;
            return r;
          }
        }
        const Rank r = candidates_.front();
        rr_cursor_ = (r + 1) % nprocs_;
        return r;
      }
      case SchedPolicy::kRandomSeeded:
        return candidates_[static_cast<std::size_t>(
            rng_.next_below(candidates_.size()))];
      case SchedPolicy::kPriority: {
        Rank best = candidates_.front();
        for (Rank r : candidates_) {
          if (priorities_[static_cast<std::size_t>(r)] >
              priorities_[static_cast<std::size_t>(best)]) {
            best = r;
          }
        }
        return best;
      }
    }
    return candidates_.front();
  }

  void dispatch(Rank r) {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.hint.store(false, std::memory_order_relaxed);
    if (f.state == State::kUnstarted) prepare_fiber(f);
    f.state = State::kRunning;
    current_ = r;
    DAMPI_TEVENT(obs::EventKind::kSchedSwitch, obs::Phase::kBegin, r);
    const int host_rank = log::thread_rank();
    log::set_thread_rank(r);
    obs::Lane* host_lane = nullptr;
    if (f.lane != nullptr) host_lane = obs::exchange_thread_lane(f.lane);
    switch_context(&sched_ctx_, &f.ctx);
    if (f.lane != nullptr) obs::exchange_thread_lane(host_lane);
    log::set_thread_rank(host_rank);
    DAMPI_TEVENT(obs::EventKind::kSchedSwitch, obs::Phase::kEnd, r);
    current_ = -1;
  }

  void prepare_fiber(Fiber& f) {
    f.stack = stack_cache().take();
    make_context(&f.ctx, f.stack, kFiberStackBytes, &CoopScheduler::fiber_entry,
                 this);
  }

  static void fiber_entry(void* self) {
    static_cast<CoopScheduler*>(self)->fiber_main();
  }

  void fiber_main() {
    const Rank r = current_;
    cb_->body(r);
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.state = State::kFinished;
    ++finished_;
    // Switch away for good; the scheduler never resumes a finished
    // fiber, so the loop is unreachable after the first switch (it keeps
    // the fiber from ever returning into its start frame).
    for (;;) switch_context(&f.ctx, &sched_ctx_);
  }

  SchedOptions opts_;
  int nprocs_;
  Rng rng_;
  std::vector<Fiber> fibers_;
  std::vector<std::uint64_t> priorities_;
  std::vector<Rank> candidates_;
  FiberContext sched_ctx_;
  const Callbacks* cb_ = nullptr;
  Rank current_ = -1;
  Rank rr_cursor_ = 0;
  int finished_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace

bool coop_supported() {
#if defined(DAMPI_COOP_UNSUPPORTED)
  return false;
#else
  return true;
#endif
}

std::unique_ptr<RankScheduler> make_scheduler(const SchedOptions& options,
                                              int nprocs) {
  DAMPI_CHECK(nprocs > 0);
  if (options.kind == SchedulerKind::kCoop) {
    if (coop_supported()) {
      return std::make_unique<CoopScheduler>(options, nprocs);
    }
    static bool warned = false;
    if (!warned) {
      warned = true;
      DAMPI_LOG(kWarn) << "coop scheduler unavailable in sanitized builds; "
                          "falling back to thread scheduler";
    }
  }
  return std::make_unique<ThreadScheduler>(nprocs);
}

bool parse_sched_spec(const std::string& spec, SchedOptions* out) {
  SchedOptions parsed = *out;
  if (spec == "thread") {
    parsed.kind = SchedulerKind::kThread;
  } else if (spec == "coop" || spec == "coop-rr") {
    parsed.kind = SchedulerKind::kCoop;
    parsed.pick = SchedPolicy::kRoundRobin;
  } else if (spec == "coop-random") {
    parsed.kind = SchedulerKind::kCoop;
    parsed.pick = SchedPolicy::kRandomSeeded;
  } else if (spec == "coop-priority") {
    parsed.kind = SchedulerKind::kCoop;
    parsed.pick = SchedPolicy::kPriority;
  } else {
    return false;
  }
  *out = parsed;
  return true;
}

std::string sched_spec(const SchedOptions& options) {
  if (options.kind == SchedulerKind::kThread) return "thread";
  switch (options.pick) {
    case SchedPolicy::kRoundRobin: return "coop-rr";
    case SchedPolicy::kRandomSeeded: return "coop-random";
    case SchedPolicy::kPriority: return "coop-priority";
  }
  return "coop";
}

const SchedOptions& default_sched_options() {
  static const SchedOptions cached = [] {
    SchedOptions options;
    if (!coop_supported()) options.kind = SchedulerKind::kThread;
    const char* env = std::getenv("DAMPI_SCHED");
    if (env != nullptr && env[0] != '\0' &&
        !parse_sched_spec(env, &options)) {
      DAMPI_LOG(kWarn) << "ignoring unrecognized DAMPI_SCHED value '" << env
                       << "' (want thread|coop|coop-rr|coop-random|"
                          "coop-priority)";
    }
    return options;
  }();
  return cached;
}

}  // namespace dampi::mpism
