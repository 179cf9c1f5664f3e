// DampiLayer: the paper's Algorithm 1 as a PnMPI-style tool layer.
//
// Per rank it maintains the logical clock, records an epoch for every
// non-deterministic event (wildcard receive, flagged wildcard probe),
// classifies each completed incoming message as late/not-late against its
// open epochs to accumulate potential matches, transmits clocks through a
// piggyback transport, enforces epoch decisions in guided replays by
// rewriting MPI_ANY_SOURCE to the forced source, honors loop-abstraction
// regions, and runs the §V unsafe-pattern monitor.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "core/clock_state.hpp"
#include "core/decision.hpp"
#include "core/epoch.hpp"
#include "core/options.hpp"
#include "mpism/tool.hpp"
#include "piggyback/transport.hpp"

namespace dampi::core {

/// State shared by all ranks of one run; a replay context keeps one and
/// resets it per run.
struct DampiShared {
  ExplorerOptions options;  ///< run configuration (owned copy)
  Schedule schedule;
  std::shared_ptr<TraceSink> sink;
  /// Highest decided nd_index per rank (guided frontier); -1 = none.
  std::vector<std::int64_t> max_decided_index;
  /// Replay divergence: an epoch inside the guided frontier had no
  /// decision (the ND event sequence shifted, e.g. a timing-dependent
  /// iprobe loop). Counted, not fatal — the run degrades to self-run.
  std::atomic<std::uint64_t> divergences{0};

  DampiShared(ExplorerOptions opts, Schedule sched,
              std::shared_ptr<TraceSink> trace_sink);

  /// Arms the next run with `sched` (storage reused).
  void reset(const Schedule& sched);
};

class DampiLayer final : public mpism::ToolLayer {
 public:
  DampiLayer(int rank, int nprocs, std::shared_ptr<DampiShared> shared,
             std::unique_ptr<piggyback::Transport> transport);
  ~DampiLayer() override;

  void on_init(mpism::ToolCtx& ctx) override;
  void on_finalize(mpism::ToolCtx& ctx) override;

  void pre_isend(mpism::ToolCtx& ctx, mpism::SendCall& call) override;

  void pre_irecv(mpism::ToolCtx& ctx, mpism::RecvCall& call) override;
  void post_irecv(mpism::ToolCtx& ctx, const mpism::RecvCall& call,
                  mpism::RequestId id) override;

  void post_wait(mpism::ToolCtx& ctx, mpism::ReqCompletion& c) override;

  void pre_probe(mpism::ToolCtx& ctx, mpism::ProbeCall& call) override;
  void post_probe(mpism::ToolCtx& ctx, const mpism::ProbeCall& call,
                  bool flag, mpism::Status& status) override;

  void pre_collective(mpism::ToolCtx& ctx, mpism::CollCall& call) override;
  void post_collective(mpism::ToolCtx& ctx, const mpism::CollCall& call,
                       const mpism::CollResult& result) override;

  void on_pcontrol(mpism::ToolCtx& ctx, int level,
                   const std::string& what) override;

  /// Flushes this run's trace (an aborted run never reached
  /// on_finalize) and rewinds every per-run field; the epoch records,
  /// tables and transport keep their storage.
  bool reset_for_next_run() override;

 private:
  /// Guided-mode lookup for the ND event about to happen (at the current
  /// nd_index); returns the forced source world rank or kAnySource.
  mpism::Rank guided_source();

  /// Record a new epoch for the ND event that just committed.
  EpochRecord& record_epoch(mpism::ToolCtx& ctx, mpism::CommId comm,
                            mpism::Tag tag, bool is_probe);

  /// The paper's FindPotentialMatches: classify a completed incoming
  /// message against this rank's open epochs (newest first, early exit
  /// once the message is causally after an epoch).
  void find_potential_matches(mpism::ToolCtx& ctx, mpism::Rank src_world,
                              std::uint64_t seq, mpism::Tag tag,
                              mpism::CommId comm,
                              const ClockState::Received& msg_clock);

  /// Decodes the clock of a completed incoming message into received_,
  /// classifies the message against the open epochs and merges its clock.
  void receive_clock(mpism::ToolCtx& ctx, mpism::Rank src_world,
                     std::uint64_t seq, mpism::Tag tag, mpism::CommId comm,
                     const mpism::Bytes& msg_clock);

  void unsafe_check(mpism::ToolCtx& ctx, const char* op);

  /// The clock outgoing traffic advertises (== clock_ unless deferred
  /// sync is enabled).
  ClockState& transmit_clock() {
    return options_.deferred_clock_sync ? xmit_clock_ : clock_;
  }
  /// Apply an incoming remote clock to both trackers.
  void merge_incoming(const ClockState::Received& remote) {
    clock_.merge(remote);
    if (options_.deferred_clock_sync) xmit_clock_.merge(remote);
  }

  void flush(bool from_finalize);

  int rank_;
  int nprocs_;
  std::shared_ptr<DampiShared> shared_;
  const ExplorerOptions& options_;  ///< shared_->options
  std::unique_ptr<piggyback::Transport> transport_;

  ClockState clock_;
  /// §V deferred-sync transmittal clock: what outgoing traffic carries
  /// when options_.deferred_clock_sync is on. Lags clock_ by the ticks
  /// of wildcard epochs whose Wait/Test has not completed; catches up
  /// per epoch at completion.
  ClockState xmit_clock_;
  std::uint64_t nd_index_ = 0;
  /// The last received clock, decoded (its capacity is reused).
  ClockState::Received received_;

  /// Epochs recorded by this rank this run: epochs_[0, epoch_count_)
  /// (flushed at finalize or reset). Records past the count are spares
  /// whose buffers the next epochs reuse.
  std::vector<EpochRecord> epochs_;
  std::size_t epoch_count_ = 0;
  std::vector<UnsafeAlert> alerts_;
  std::uint64_t recv_epoch_count_ = 0;
  std::uint64_t probe_epoch_count_ = 0;
  std::uint64_t potential_count_ = 0;
  std::uint64_t late_count_ = 0;
  bool flushed_ = false;

  /// Pending wildcard receive (Wait/Test not completed yet) -> index
  /// into epochs_. Its key set is the §V monitor's watch set.
  IdMap<std::size_t> wildcard_reqs_;

  /// One-slot latches carrying pre-hook context into the matching post
  /// hook (hooks on a rank are strictly sequential).
  bool latch_irecv_was_wildcard_ = false;
  bool latch_probe_was_wildcard_ = false;
  /// The clock of the send in progress (its capacity is reused): the
  /// engine reads it through SendCall::carry while injecting the send.
  mpism::Bytes send_clock_;

  /// MPI_Pcontrol loop-abstraction nesting depth.
  int region_depth_ = 0;

  /// Automatic loop detection (§VI future work): signature of the last
  /// epoch and the length of the current identical-signature streak.
  struct EpochSignature {
    mpism::CommId comm = mpism::kCommNull;
    mpism::Tag tag = mpism::kAnyTag;
    bool is_probe = false;
    friend bool operator==(const EpochSignature&,
                           const EpochSignature&) = default;
  };
  EpochSignature last_signature_;
  int signature_streak_ = 0;

  /// Live user communicators this rank belongs to — the finalize-time
  /// drain walks them to analyze messages that were sent but never
  /// received (their piggybacks would otherwise never impinge; the
  /// paper's Fig. 3 relies on the unreceived competitor being analyzed).
  std::vector<mpism::CommId> known_comms_{mpism::kCommWorld};
  /// The drain's receive buffers (their capacity is reused).
  mpism::Bytes drained_payload_;
  mpism::CarriedClock drained_clock_;

  void drain_unreceived(mpism::ToolCtx& ctx);
};

/// Build the ToolSetup for one DAMPI-instrumented run. `shared` carries
/// the run configuration (shared->options), the schedule, and the sink.
mpism::ToolSetup make_dampi_setup(std::shared_ptr<DampiShared> shared);

}  // namespace dampi::core
