#include "obs/trace.hpp"

#include <algorithm>

namespace dampi::obs {

namespace detail {
thread_local Lane* tls_lane = nullptr;
std::atomic<bool> trace_enabled{false};
}  // namespace detail

const KindInfo& kind_info(EventKind kind) {
  static const KindInfo kTable[] = {
      {"send.match", {"src", "dst", "tag", nullptr}},
      {"send.unexpected", {"src", "dst", "tag", nullptr}},
      {"recv.post", {"posted_src", nullptr, "tag", nullptr}},
      {"recv.match", {"src", "dst", "tag", nullptr}},
      {"blocked", {"rank", "kind", nullptr, nullptr}},
      {"collective", {"kind", "comm", nullptr, nullptr}},
      {"deadlock", {nullptr, nullptr, nullptr, nullptr}},
      {"epoch.open", {"rank", "nd", nullptr, "lc"}},
      {"epoch.close", {"rank", "nd", "src", "seq"}},
      {"late.send", {"src", "nd", "tag", "seq"}},
      {"piggyback.attach", {"bytes", nullptr, nullptr, nullptr}},
      {"decision.push", {"rank", "nd", "alts", nullptr}},
      {"decision.pop", {"rank", "nd", "src", nullptr}},
      {"por.prune", {"rank", "nd", "slept", nullptr}},
      {"replay", {nullptr, nullptr, nullptr, "interleaving"}},
      {"sched.run", {"rank", nullptr, nullptr, nullptr}},
      {"run.timeout", {nullptr, nullptr, nullptr, nullptr}},
      {"run.cancel", {nullptr, nullptr, nullptr, nullptr}},
      {"fault.inject", {"rank", "op", "kind", nullptr}},
      {"replay.retry", {"attempt", nullptr, nullptr, nullptr}},
      {"replay.quarantine", {nullptr, nullptr, nullptr, "interleaving"}},
      {"checkpoint.write", {"frames", nullptr, nullptr, "interleaving"}},
      {"sweep.plan", {"plan", "verdict", nullptr, "interleavings"}},
      {"sweep.batch", {"fault_rank", "walks", nullptr, "replays"}},
  };
  static_assert(sizeof(kTable) / sizeof(kTable[0]) ==
                static_cast<std::size_t>(EventKind::kKindCount));
  return kTable[static_cast<std::size_t>(kind)];
}

std::uint64_t trace_now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Lane::Lane(std::string name, std::size_t capacity_pow2)
    : name_(std::move(name)),
      ring_(capacity_pow2),
      mask_(capacity_pow2 - 1) {}

std::vector<TraceEvent> Lane::events() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(h, ring_.size());
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = h - n; i < h; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_capacity(std::size_t events) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ =
      round_up_pow2(std::clamp<std::size_t>(events, 2, kMaxTraceCapacity));
}

Lane* Tracer::acquire(std::string name) {
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::find_if(free_.begin(), free_.end(), [&](const Lane* lane) {
    return lane->name() == name;
  });
  if (it != free_.end()) {
    Lane* lane = *it;
    free_.erase(it);
    return lane;
  }
  lanes_.push_back(std::make_unique<Lane>(std::move(name), capacity_));
  return lanes_.back().get();
}

void Tracer::release(Lane* lane) {
  if (lane == nullptr) return;
  std::lock_guard<std::mutex> lk(mu_);
  free_.push_back(lane);
}

std::vector<LaneSnapshot> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<LaneSnapshot> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    LaneSnapshot snap;
    snap.name = lane->name();
    snap.events = lane->events();
    snap.emitted = lane->emitted();
    out.push_back(std::move(snap));
  }
  return out;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  free_.clear();
  lanes_.clear();
}

Lane* exchange_thread_lane(Lane* lane) {
  Lane* prev = detail::tls_lane;
  detail::tls_lane = lane;
  return prev;
}

ThreadLane::ThreadLane(std::string name) {
  prev_ = detail::tls_lane;
  lane_ = Tracer::instance().acquire(std::move(name));
  if (lane_ != nullptr) detail::tls_lane = lane_;
}

ThreadLane::~ThreadLane() {
  if (lane_ != nullptr) {
    detail::tls_lane = prev_;
    Tracer::instance().release(lane_);
  }
}

}  // namespace dampi::obs
