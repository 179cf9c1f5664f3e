#include "mpism/scheduler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <bit>
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
#include "mpism/wait_on.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif
#if !defined(__x86_64__)
#include <ucontext.h>
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
#endif

namespace dampi::mpism {
namespace {

/// A suspended execution context, plus what ASan and TSan must be told
/// when execution moves onto or off its stack (see switch_context).
struct FiberContext {
#if defined(__x86_64__)
  void* sp = nullptr;
#else
  ucontext_t uc = {};
#endif
#if defined(__SANITIZE_ADDRESS__)
  const void* stack_bottom = nullptr;  // the stack this context runs on
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber = nullptr;
#endif
};

#if defined(__x86_64__)
void raw_switch(FiberContext* from, FiberContext* to) {
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
void raw_switch(FiberContext* from, FiberContext* to) {
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
// Sanitizer fiber annotations.
//
// ASan and TSan track the stack each thread runs on, and a raw switch
// moves execution onto a stack they know nothing about. switch_context
// tells them around every switch: ASan swaps the stack bounds it checks
// against (and its use-after-return fake stack), TSan swaps its shadow
// call stack and makes each switch a synchronization point, since the
// fibers hand an unlocked engine to one another. In unsanitized builds
// every hook compiles away and switch_context is the raw switch.
// ---------------------------------------------------------------------------

/// Readies `ctx` to start afresh on `stack`. A finished fiber never
/// returned, so on a reused stack its frames' ASan redzones are still
/// poisoned and its TSan fiber still holds an abandoned shadow stack.
void sanitizer_prepare([[maybe_unused]] FiberContext* ctx,
                       [[maybe_unused]] char* stack,
                       [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(stack, bytes);
  ctx->stack_bottom = stack;
  ctx->stack_size = bytes;
#endif
#if defined(__SANITIZE_THREAD__)
  if (ctx->tsan_fiber != nullptr) __tsan_destroy_fiber(ctx->tsan_fiber);
  ctx->tsan_fiber = __tsan_create_fiber(0);
#endif
}

/// Suspends `from` and resumes `to`; returns when something switches
/// back to `from`. `from_finished` marks the last switch off a finished
/// fiber, which never resumes, so ASan drops its fake stack.
void switch_context(FiberContext* from, FiberContext* to,
                    [[maybe_unused]] bool from_finished = false) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(from_finished ? nullptr : &from->fake_stack,
                                 to->stack_bottom, to->stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  raw_switch(from, to);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(from->fake_stack, nullptr, nullptr);
#endif
}

// ---------------------------------------------------------------------------
// Fiber stacks.
//
// Every fiber stack is kFiberStackBytes mmap'd with a PROT_NONE guard page
// below it, so a rank that recurses past its stack dies with SIGSEGV
// instead of overwriting whatever lies below. Stacks are reused through a
// per-thread cache: a scheduler takes one on each fiber's first dispatch,
// keeps it for every later run, and hands all of them back when it is
// destroyed, so a thread replaying thousands of runs maps its stacks once
// and then takes no page faults on them. The cache keeps as many stacks
// as the thread's largest run used and unmaps them when the thread exits.
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
// and `--sched thread`).
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
      if (ready(r) || cb_->stop()) return;
      std::uint64_t gen;
      {
        std::lock_guard<std::mutex> wl(w.mu);
        gen = w.gen;
      }
      // Re-check after the snapshot: a waker that bumped gen first has
      // its published state made visible by the w.mu acquire above.
      if (ready(r) || cb_->stop()) return;
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
  bool single_threaded() const override { return false; }
  const char* name() const override { return "thread"; }

 private:
  bool ready(Rank r) const {
    return cb_->waits[static_cast<std::size_t>(r)].ready();
  }

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
// wake hints, wait-condition results — is a deterministic function of
// program behaviour, so a (policy, seed) pair fixes the entire
// interleaving.
//
// A pick looks only at the ready set: one bit per rank that is
// unstarted, poll-yielded, or woken since its wait condition was last
// seen false. Visiting the set in ascending rank order yields exactly
// the candidates (and order) a scan of every rank would, because a
// blocked rank's condition only turns true together with a wake() of
// that rank; so a pick costs the set's size, not the rank count, and a
// round-robin pick stops at the first runnable rank after its cursor.
// The full scan remains for the stop path (every unfinished rank runs
// to unwind) and as the check before a stall is declared.
//
// Fibers and the dispatch loop share one OS thread, so the engine built
// over this scheduler is single-threaded by construction and takes no
// lock (single_threaded() builds its EngineLock unlocked): the guard
// release/retake around each swap in block/yield is a no-op. Rank state
// reads race only with external cancellation, which publishes through
// atomics and the verdict mutex by contract.
// ---------------------------------------------------------------------------

class CoopScheduler final : public RankScheduler {
 public:
  CoopScheduler(const SchedOptions& options, int nprocs)
      : opts_(options),
        nprocs_(nprocs),
        rng_(options.seed),
        fibers_(static_cast<std::size_t>(nprocs)),
        ready_((static_cast<std::size_t>(nprocs) + 63) / 64) {
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
#if defined(__SANITIZE_THREAD__)
      if (f.ctx.tsan_fiber != nullptr) __tsan_destroy_fiber(f.ctx.tsan_fiber);
#endif
    }
  }

  void run(const Callbacks& cb) override {
    cb_ = &cb;
    restart();
#if defined(__SANITIZE_THREAD__)
    sched_ctx_.tsan_fiber = __tsan_get_current_fiber();
#endif
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
    while (!(ready(r) || cb_->stop())) {
      f.state = State::kBlocked;
      // Keeps the guard contract; a no-op over the unlocked coop engine.
      g.unlock();
      switch_context(&f.ctx, &sched_ctx_);
      g.lock();
    }
  }

  void yield(EngineGuard& g, Rank r) override {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.state = State::kYielded;
    mark(r);
    g.unlock();
    switch_context(&f.ctx, &sched_ctx_);
    g.lock();
  }

  void wake(Rank r) override { mark(r); }

  /// Nothing to do: wake_all comes with a stop, and once the run has
  /// stopped pick() scans every unfinished rank, marked or not. So a
  /// cancel from another thread never touches the ready set.
  void wake_all() override {}

  bool detects_stall() const override { return true; }
  bool single_threaded() const override { return true; }

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
    /// Taken from the thread's stack cache on first dispatch, so
    /// unstarted ranks cost nothing; kept across runs and returned when
    /// the scheduler dies.
    char* stack = nullptr;
    FiberContext ctx;
    obs::Lane* lane = nullptr;
  };

  /// Back to the state of a fresh scheduler, keeping each fiber's stack
  /// (every fiber of the previous run has finished).
  void restart() {
    for (Fiber& f : fibers_) f.state = State::kUnstarted;
    for (Rank r = 0; r < nprocs_; ++r) mark(r);
    rng_ = Rng(opts_.seed);
    current_ = -1;
    rr_cursor_ = 0;
    finished_ = 0;
    stalls_ = 0;
  }

  // Ready-set bits, plain words: only the dispatch thread and its
  // fibers touch them (wake_all, the one call other threads make, leaves
  // them alone).
  std::uint64_t& ready_word(Rank r) {
    return ready_[static_cast<std::size_t>(r) / 64];
  }
  static std::uint64_t ready_bit(Rank r) {
    return std::uint64_t{1} << (static_cast<std::size_t>(r) % 64);
  }
  void mark(Rank r) { ready_word(r) |= ready_bit(r); }
  void unmark(Rank r) { ready_word(r) &= ~ready_bit(r); }

  bool ready(Rank r) const {
    return cb_->waits[static_cast<std::size_t>(r)].ready();
  }

  /// Whether ready-set member `r` can run now. A blocked rank whose
  /// condition is still false leaves the set until the wake() that comes
  /// with its flip; finished ranks leave it for good.
  bool runnable(Rank r) {
    switch (fibers_[static_cast<std::size_t>(r)].state) {
      case State::kUnstarted:
      case State::kYielded:
        return true;  // always runnable
      case State::kBlocked:
        if (ready(r)) return true;
        break;
      case State::kRunning:
      case State::kFinished:
        break;
    }
    unmark(r);
    return false;
  }

  /// The first runnable member of the ready set in [from, to), in
  /// ascending rank order, or -1.
  Rank first_runnable(Rank from, Rank to) {
    for (auto w = static_cast<std::size_t>(from) / 64;
         w * 64 < static_cast<std::size_t>(to); ++w) {
      std::uint64_t bits = ready_[w];
      if (w == static_cast<std::size_t>(from) / 64) {
        bits &= ~std::uint64_t{0} << (static_cast<std::size_t>(from) % 64);
      }
      for (; bits != 0; bits &= bits - 1) {
        const auto r = static_cast<Rank>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        if (r >= to) return -1;
        if (runnable(r)) return r;
      }
    }
    return -1;
  }

  /// Selects the next rank to dispatch, declaring a stall first if
  /// nothing is runnable. Candidates come out in ascending rank order.
  Rank pick() {
    candidates_.clear();
    if (cb_->stop()) {
      // Stopping releases every parked rank so it can observe the abort
      // and unwind.
      for (Rank r = 0; r < nprocs_; ++r) {
        if (fibers_[static_cast<std::size_t>(r)].state != State::kFinished) {
          candidates_.push_back(r);
        }
      }
      return choose_from_candidates();
    }
    if (opts_.pick == SchedPolicy::kRoundRobin) {
      // Round-robin takes the first candidate at or after the cursor,
      // else the lowest: the first runnable rank of a wrapped walk from
      // the cursor, with no need to build the candidate list.
      Rank r = first_runnable(rr_cursor_, nprocs_);
      if (r < 0) r = first_runnable(0, rr_cursor_);
      if (r >= 0) {
        rr_cursor_ = (r + 1) % nprocs_;
        return r;
      }
    } else {
      for (Rank r = first_runnable(0, nprocs_); r >= 0;
           r = r + 1 < nprocs_ ? first_runnable(r + 1, nprocs_) : -1) {
        candidates_.push_back(r);
      }
    }
    if (candidates_.empty()) {
      // Re-scan every blocked rank before concluding anything.
      for (Rank r = 0; r < nprocs_; ++r) {
        const Fiber& f = fibers_[static_cast<std::size_t>(r)];
        if (f.state == State::kBlocked && ready(r)) candidates_.push_back(r);
      }
    }
    if (candidates_.empty()) {
      // Every live rank is blocked with a false condition: with eager
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
    unmark(r);
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
    if (f.stack == nullptr) f.stack = stack_cache().take();
    sanitizer_prepare(&f.ctx, f.stack, kFiberStackBytes);
    make_context(&f.ctx, f.stack, kFiberStackBytes, &CoopScheduler::fiber_entry,
                 this);
  }

  static void fiber_entry(void* self) {
    static_cast<CoopScheduler*>(self)->fiber_main();
  }

  void fiber_main() {
#if defined(__SANITIZE_ADDRESS__)
    // Completes the switch that started this fiber and learns the bounds
    // of the dispatching thread's stack, which every switch back names.
    __sanitizer_finish_switch_fiber(nullptr, &sched_ctx_.stack_bottom,
                                    &sched_ctx_.stack_size);
#endif
    const Rank r = current_;
    cb_->body(r);
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.state = State::kFinished;
    ++finished_;
    // Switch away for good; the scheduler never resumes a finished
    // fiber, so the loop is unreachable after the first switch (it keeps
    // the fiber from ever returning into its start frame).
    for (;;) switch_context(&f.ctx, &sched_ctx_, /*from_finished=*/true);
  }

  SchedOptions opts_;
  int nprocs_;
  Rng rng_;
  std::vector<Fiber> fibers_;
  std::vector<std::uint64_t> priorities_;
  std::vector<std::uint64_t> ready_;
  std::vector<Rank> candidates_;
  FiberContext sched_ctx_;
  const Callbacks* cb_ = nullptr;
  Rank current_ = -1;
  Rank rr_cursor_ = 0;
  int finished_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace

bool coop_supported() { return true; }

std::unique_ptr<RankScheduler> make_scheduler(const SchedOptions& options,
                                              int nprocs) {
  DAMPI_CHECK(nprocs > 0);
  if (options.kind == SchedulerKind::kCoop) {
    return std::make_unique<CoopScheduler>(options, nprocs);
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
