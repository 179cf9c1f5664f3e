// Lock-free per-thread event tracer.
//
// Every participating thread (simulated rank, replay worker, the
// exploring thread) claims a *lane*: a fixed-capacity single-producer
// ring buffer of POD events stamped with monotonic timestamps. Emitting
// is wait-free and allocation-free — one relaxed load of the global
// enable flag, one slot write, one release store — so instrumentation
// can sit on the engine's matching hot path. The ring keeps the most
// recent `capacity` events per lane (older ones are overwritten; the
// drop count is reported at export time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dampi::obs {

/// Event taxonomy. Names and argument meanings for the exporter live in
/// kind_info() — keep the two in sync when adding kinds.
enum class EventKind : std::uint16_t {
  // mpism engine (lanes: "rank N")
  kSendMatch = 0,   ///< send matched a posted receive; a=src b=dst c=tag
  kSendQueued,      ///< send queued unexpected; a=src b=dst c=tag
  kRecvPost,        ///< receive posted, no match yet; a=posted_src c=tag
  kRecvMatch,       ///< receive completed; a=src b=dst c=tag
  kBlock,           ///< span: rank blocked; a=rank b=BlockKind ordinal
  kCollective,      ///< span: collective enter..exit; a=kind b=comm
  kDeadlock,        ///< instant: deadlock declared on this thread
  // DAMPI layer (lanes: "rank N")
  kEpochOpen,       ///< wildcard epoch recorded; a=rank b=nd_index
  kEpochClose,      ///< epoch bound to its match; a=rank b=nd_index c=src
  kLateSend,        ///< potential match recorded; a=src b=nd c=tag d=seq
  kPiggybackAttach, ///< clock attached to outgoing send; a=clock bytes
  // explorer (lane: "explore")
  kDecisionPush,    ///< DFS frame added; a=rank b=nd_index c=alternatives
  kDecisionPop,     ///< DFS frame flipped; a=rank b=nd_index c=forced src
  kPorPrune,        ///< sleep-set prune; a=rank b=nd_index c=slept sources
  kRun,             ///< span: one replay; d=interleaving
  // coop scheduler (emitted in the host thread's lane)
  kSchedSwitch,     ///< span: a rank fiber held the host thread; a=rank
  // resilience (engine / fault layer / explorer lanes)
  kRunTimeout,      ///< instant: a per-run budget expired (watchdog)
  kRunCancel,       ///< instant: an external CancelSource ended the run
  kFaultInject,     ///< instant: fault point fired; a=rank b=op c=kind
  kRetry,           ///< instant: failed replay re-executed; a=attempt
  kQuarantine,      ///< instant: decision subtree quarantined; d=interleaving
  kCheckpoint,      ///< span: checkpoint write; a=frames d=interleaving
  // fault sweep (lane: "sweep")
  kSweepPlan,       ///< span: one plan campaign; a=plan b=verdict d=interleavings
  kKindCount
};

enum class Phase : std::uint8_t { kInstant = 0, kBegin, kEnd };

/// Exporter-facing description of an EventKind.
struct KindInfo {
  const char* name;     ///< Chrome trace event name
  const char* args[4];  ///< labels for a, b, c, d (nullptr = unused)
};
const KindInfo& kind_info(EventKind kind);

/// POD event record; 32 bytes, written in place in the ring.
struct TraceEvent {
  std::uint64_t ts_ns = 0;  ///< monotonic, since process trace origin
  EventKind kind = EventKind::kKindCount;
  Phase phase = Phase::kInstant;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::uint64_t d = 0;
};

/// The most events a lane retains: 32 MB of TraceEvents per lane.
constexpr std::size_t kMaxTraceCapacity = std::size_t{1} << 20;

/// Nanoseconds since the process-wide trace origin (first use).
std::uint64_t trace_now_ns();

/// One single-producer ring buffer. The owning thread emits; snapshots
/// happen under the tracer registry lock once the owner is quiescent
/// (released the lane or stopped emitting).
class Lane {
 public:
  Lane(std::string name, std::size_t capacity_pow2);

  const std::string& name() const { return name_; }

  /// Wait-free append (owner thread only).
  void emit(EventKind kind, Phase phase, std::int32_t a, std::int32_t b,
            std::int32_t c, std::uint64_t d) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    TraceEvent& slot = ring_[h & mask_];
    slot.ts_ns = trace_now_ns();
    slot.kind = kind;
    slot.phase = phase;
    slot.a = a;
    slot.b = b;
    slot.c = c;
    slot.d = d;
    head_.store(h + 1, std::memory_order_release);
  }

  std::uint64_t emitted() const {
    return head_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return ring_.size(); }

  /// Oldest-to-newest copy of the retained window.
  std::vector<TraceEvent> events() const;

 private:
  std::string name_;
  std::vector<TraceEvent> ring_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

/// Copy of one lane for export/analysis.
struct LaneSnapshot {
  std::string name;
  std::uint64_t emitted = 0;  ///< total events ever (>= events.size())
  std::vector<TraceEvent> events;
};

namespace detail {
/// The tracer's runtime switch, at namespace scope so that trace_on()
/// is one relaxed load with no call into Tracer::instance(). Only
/// Tracer::set_enabled writes it.
extern std::atomic<bool> trace_enabled;
}  // namespace detail

/// Process-wide lane registry. Lanes are recycled by name: a thread
/// claiming "rank 0" reuses the lane a previous run's rank 0 released,
/// so sequential replays share lanes while concurrent ones get their
/// own (exported as separate Chrome-trace tids with the same label).
class Tracer {
 public:
  static Tracer& instance();

  /// Runtime switch consulted by the emit macros (trace_on()).
  void set_enabled(bool on) {
    detail::trace_enabled.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return detail::trace_enabled.load(std::memory_order_relaxed);
  }

  /// Events retained per lane; applies to lanes created afterwards.
  /// Clamped to [2, kMaxTraceCapacity], then rounded up to a power of
  /// two.
  void set_capacity(std::size_t events);

  /// Claim a lane for the calling thread (nullptr when tracing is
  /// disabled — threads started while off stay unobserved).
  Lane* acquire(std::string name);
  void release(Lane* lane);

  /// Copies of every lane ever created, in creation (tid) order. Call
  /// at quiescence for exact results; concurrent emitters at most
  /// contribute a clipped tail.
  std::vector<LaneSnapshot> snapshot() const;

  /// Drop all lanes (test isolation; no lane may be claimed).
  void reset();

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< index == exported tid
  std::vector<Lane*> free_;
  std::size_t capacity_ = 1u << 14;
};

namespace detail {
extern thread_local Lane* tls_lane;
}  // namespace detail

/// Point the calling thread's emits at `lane` (nullptr detaches) and
/// return the previous lane. The coop scheduler uses this to redirect a
/// single host thread into the lane of whichever rank fiber it resumes;
/// ThreadLane remains the RAII path for threads that own one lane.
Lane* exchange_thread_lane(Lane* lane);

inline bool trace_on() {
  return detail::trace_enabled.load(std::memory_order_relaxed);
}

/// Emit into the calling thread's lane (no-op for unclaimed threads).
inline void emit(EventKind kind, Phase phase, std::int32_t a = 0,
                 std::int32_t b = 0, std::int32_t c = 0,
                 std::uint64_t d = 0) {
  Lane* lane = detail::tls_lane;
  if (lane != nullptr) lane->emit(kind, phase, a, b, c, d);
}

/// RAII lane claim for the calling thread; restores any previous claim.
class ThreadLane {
 public:
  explicit ThreadLane(std::string name);
  ~ThreadLane();

  ThreadLane(const ThreadLane&) = delete;
  ThreadLane& operator=(const ThreadLane&) = delete;

 private:
  Lane* lane_ = nullptr;
  Lane* prev_ = nullptr;
};

}  // namespace dampi::obs

// Hot-path emit macros: one relaxed load + branch while tracing is
// disabled at runtime (arguments are then never evaluated).
#define DAMPI_TEVENT(kind, phase, ...)                              \
  do {                                                              \
    if (::dampi::obs::trace_on()) {                                 \
      ::dampi::obs::emit((kind), (phase)__VA_OPT__(, ) __VA_ARGS__); \
    }                                                               \
  } while (0)
#define DAMPI_TRACE_THREAD_LANE(name_expr) \
  ::dampi::obs::ThreadLane dampi_obs_thread_lane_ {(name_expr)}
