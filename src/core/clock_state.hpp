// Unified view over Lamport / vector clocks for the DAMPI layer: tick,
// merge serialized remote clocks, and decide lateness ("is this message
// not causally after that epoch?") under either mode. Only the selected
// mode's clock is kept: the Lamport scalar always (it orders traces),
// the vector only in vector mode.
#pragma once

#include <cstdint>
#include <vector>

#include "clocks/lamport.hpp"
#include "clocks/vector_clock.hpp"
#include "core/options.hpp"
#include "mpism/types.hpp"

namespace dampi::core {

class ClockState {
 public:
  /// A received clock, decoded once per message for the late-message
  /// scan and the merge. decode() reuses its vector's capacity.
  struct Received {
    bool present = false;  ///< false: the message carried no clock
    std::uint64_t lc = 0;  ///< Lamport mode
    std::vector<clocks::VectorClock::Value> vc;  ///< vector mode
  };

  ClockState(ClockMode mode, int nprocs, int rank);

  /// Back to the zero clock (a replay context reuses its layers).
  void reset();

  void tick();
  /// Decode a serialized remote clock into `*out` (not present if empty
  /// — e.g. a message that predates instrumentation in tests).
  void decode(const mpism::Bytes& remote, Received* out) const;
  /// Merge a received clock (no-op if not present).
  void merge(const Received& remote);
  mpism::Bytes serialize() const;
  /// serialize() into a caller-owned buffer, reusing its capacity — the
  /// per-send piggyback attach path latches into the same buffer every
  /// time, so steady-state sends stop allocating.
  void serialize_into(mpism::Bytes* out) const;

  std::uint64_t lamport_value() const { return lamport_.value(); }
  /// Vector mode only (empty under Lamport clocks).
  const std::vector<clocks::VectorClock::Value>& vector_components() const {
    return vector_.components();
  }

  /// Is a message carrying `msg_clock` late with respect to an epoch
  /// whose clocks were (epoch_lc, epoch_vc)? Lamport mode: msg.LC <
  /// epoch.LC (paper §II-C). Vector mode: msg not causally after the
  /// epoch.
  bool is_late(const Received& msg_clock, std::uint64_t epoch_lc,
               const std::vector<clocks::VectorClock::Value>& epoch_vc) const;

  /// True when the message is causally *after* the epoch — the early-exit
  /// condition when scanning a rank's epochs newest-to-oldest (anything
  /// after epoch_i is also after every older epoch of the same rank).
  bool is_after(const Received& msg_clock, std::uint64_t epoch_lc,
                const std::vector<clocks::VectorClock::Value>& epoch_vc) const;

  ClockMode mode() const { return mode_; }

  /// Merge a raw epoch timestamp (the deferred-sync path: a transmittal
  /// clock catches up to a completed wildcard's epoch without absorbing
  /// the ticks of still-pending epochs).
  void merge_epoch(std::uint64_t lc,
                   const std::vector<clocks::VectorClock::Value>& vc);

  /// Merge function for collective piggyback routing (component-wise /
  /// scalar max), suitable for mpism::ToolSetup::coll_merge.
  static mpism::Bytes merge_serialized(const std::vector<mpism::Bytes>& all);

 private:
  ClockMode mode_;
  clocks::LamportClock lamport_;
  clocks::VectorClock vector_;  ///< empty under Lamport clocks
};

}  // namespace dampi::core
