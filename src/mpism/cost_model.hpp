// LogGP-style virtual-time cost model.
//
// The paper reports wall-clock on an InfiniBand cluster; this repository
// replaces that with deterministic virtual time: each rank accumulates
// virtual microseconds, message receipt propagates max(local, arrival),
// and collectives cost alpha * ceil(log2 P) on top of the participants'
// maximum. Tool layers add their own costs (a separate-message piggyback
// is charged these send and receive costs as a message of its own; the
// ISP layer serializes every call through a single scheduler timeline,
// which is what reproduces the paper's Fig. 5 collapse).
#pragma once

#include <bit>
#include <cstddef>

namespace dampi::mpism {

struct CostModel {
  /// Bookkeeping cost of any MPI call (request creation, queue scan).
  double local_op_us = 0.2;
  /// CPU overhead at the sender per message (o_s in LogGP).
  double send_overhead_us = 0.6;
  /// CPU overhead at the receiver per message (o_r).
  double recv_overhead_us = 0.6;
  /// Network latency (L). InfiniBand-ish.
  double latency_us = 2.0;
  /// Inverse bandwidth (G), us per byte (~2 GB/s -> 0.0005).
  double per_byte_us = 0.0005;
  /// Sender CPU per byte (packing/serialization). Unlike transit time,
  /// this cannot hide in communication overlap — it is what makes large
  /// piggybacks (vector clocks: 8N bytes per message) cost the sender.
  double send_per_byte_us = 0.001;
  /// Per-stage cost of a collective; a collective over P ranks costs
  /// alpha * ceil(log2 P) after the last participant arrives.
  double collective_alpha_us = 2.5;

  double message_transit_us(std::size_t bytes) const {
    return latency_us + per_byte_us * static_cast<double>(bytes);
  }

  /// ceil(log2 P) stages, at least one; for P >= 2 that is the bit width
  /// of P - 1, computed without libm on every collective arrival.
  static int collective_stages(int nprocs) {
    return nprocs <= 2 ? 1
                       : static_cast<int>(std::bit_width(
                             static_cast<unsigned>(nprocs - 1)));
  }

  double collective_us(int nprocs) const {
    return collective_alpha_us * collective_stages(nprocs);
  }
};

}  // namespace dampi::mpism
