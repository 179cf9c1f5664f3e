#include "core/clock_state.hpp"

#include <cstring>

#include "common/check.hpp"

namespace dampi::core {
namespace {

using VcValue = clocks::VectorClock::Value;

std::vector<VcValue> decode_vc(const mpism::Bytes& bytes) {
  return mpism::unpack_vec<VcValue>(bytes);
}

}  // namespace

ClockState::ClockState(ClockMode mode, int nprocs, int rank) : mode_(mode) {
  if (mode_ == ClockMode::kVector) vector_ = clocks::VectorClock(nprocs, rank);
}

void ClockState::reset() {
  lamport_ = clocks::LamportClock();
  vector_.reset();
}

void ClockState::tick() {
  // The Lamport value advances in both modes: it is the trace-ordering
  // key even in vector mode.
  lamport_.tick();
  if (mode_ == ClockMode::kVector) vector_.tick();
}

void ClockState::decode(const mpism::Bytes& remote, Received* out) const {
  out->present = !remote.empty();
  if (!out->present) return;
  if (mode_ == ClockMode::kLamport) {
    out->lc = mpism::unpack<std::uint64_t>(remote);
    return;
  }
  DAMPI_CHECK_MSG(remote.size() % sizeof(VcValue) == 0,
                  "payload size mismatch");
  out->vc.resize(remote.size() / sizeof(VcValue));
  std::memcpy(out->vc.data(), remote.data(), remote.size());
}

void ClockState::merge(const Received& remote) {
  if (!remote.present) return;
  if (mode_ == ClockMode::kLamport) {
    lamport_.merge(remote.lc);
  } else {
    vector_.merge(remote.vc);
    // Keep the scalar view consistent: the Lamport analogue of a vector
    // merge is max over the remote's own-entries... a scalar max over the
    // sum is not meaningful, so track the max component instead, which
    // preserves per-rank monotonicity for trace ordering.
    std::uint64_t max_c = 0;
    for (VcValue v : remote.vc) max_c = std::max(max_c, v);
    lamport_.merge(max_c);
  }
}

mpism::Bytes ClockState::serialize() const {
  if (mode_ == ClockMode::kLamport) {
    return mpism::pack<std::uint64_t>(lamport_.value());
  }
  return mpism::pack_vec(vector_.components());
}

void ClockState::serialize_into(mpism::Bytes* out) const {
  if (mode_ == ClockMode::kLamport) {
    const std::uint64_t v = lamport_.value();
    out->resize(sizeof(v));
    std::memcpy(out->data(), &v, sizeof(v));
    return;
  }
  const auto& components = vector_.components();
  out->resize(components.size() * sizeof(VcValue));
  if (!components.empty()) {
    std::memcpy(out->data(), components.data(), out->size());
  }
}

bool ClockState::is_late(
    const Received& msg_clock, std::uint64_t epoch_lc,
    const std::vector<VcValue>& epoch_vc) const {
  if (!msg_clock.present) return false;
  if (mode_ == ClockMode::kLamport) return msg_clock.lc < epoch_lc;
  return clocks::VectorClock::not_after(msg_clock.vc, epoch_vc);
}

bool ClockState::is_after(
    const Received& msg_clock, std::uint64_t epoch_lc,
    const std::vector<VcValue>& epoch_vc) const {
  if (!msg_clock.present) return true;
  if (mode_ == ClockMode::kLamport) return msg_clock.lc >= epoch_lc;
  const auto o = clocks::VectorClock::compare(msg_clock.vc, epoch_vc);
  return o == clocks::Ordering::kAfter || o == clocks::Ordering::kEqual;
}

void ClockState::merge_epoch(
    std::uint64_t lc, const std::vector<clocks::VectorClock::Value>& vc) {
  lamport_.merge(lc);
  if (mode_ == ClockMode::kVector && !vc.empty()) vector_.merge(vc);
}

mpism::Bytes ClockState::merge_serialized(
    const std::vector<mpism::Bytes>& all) {
  DAMPI_CHECK(!all.empty());
  if (all[0].size() == sizeof(std::uint64_t)) {
    std::uint64_t best = 0;
    for (const mpism::Bytes& b : all) {
      best = std::max(best, mpism::unpack<std::uint64_t>(b));
    }
    return mpism::pack(best);
  }
  auto merged = decode_vc(all[0]);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const auto other = decode_vc(all[i]);
    DAMPI_CHECK(other.size() == merged.size());
    for (std::size_t k = 0; k < merged.size(); ++k) {
      merged[k] = std::max(merged[k], other[k]);
    }
  }
  return mpism::pack_vec(merged);
}

}  // namespace dampi::core
