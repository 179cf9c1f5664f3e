#include "core/dampi_layer.hpp"

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "obs/trace.hpp"

namespace dampi::core {

DampiShared::DampiShared(ExplorerOptions opts, Schedule sched,
                         std::shared_ptr<TraceSink> trace_sink)
    : options(std::move(opts)), sink(std::move(trace_sink)) {
  reset(sched);
}

void DampiShared::reset(const Schedule& sched) {
  schedule = sched;
  max_decided_index.assign(static_cast<std::size_t>(options.nprocs), -1);
  for (const auto& [key, src] : schedule.forced) {
    DAMPI_CHECK_MSG(key.rank >= 0 && key.rank < options.nprocs,
                    strfmt("forced decision for rank %d at nprocs %d",
                           key.rank, options.nprocs));
    auto& slot = max_decided_index[static_cast<std::size_t>(key.rank)];
    slot = std::max(slot, static_cast<std::int64_t>(key.nd_index));
  }
  divergences.store(0, std::memory_order_relaxed);
}

DampiLayer::DampiLayer(int rank, int nprocs,
                       std::shared_ptr<DampiShared> shared,
                       std::unique_ptr<piggyback::Transport> transport)
    : rank_(rank),
      nprocs_(nprocs),
      shared_(std::move(shared)),
      options_(shared_->options),
      transport_(std::move(transport)),
      clock_(options_.clock_mode, nprocs, rank),
      xmit_clock_(options_.clock_mode, nprocs, rank) {}

DampiLayer::~DampiLayer() {
  // Aborted runs never reach on_finalize; the trace still matters (the
  // explorer reports and backtracks over it), so flush at teardown too.
  flush(/*from_finalize=*/false);
}

void DampiLayer::on_init(mpism::ToolCtx& ctx) { transport_->on_init(ctx); }

void DampiLayer::on_finalize(mpism::ToolCtx& ctx) {
  drain_unreceived(ctx);
  flush(true);
}

void DampiLayer::drain_unreceived(mpism::ToolCtx& ctx) {
  // MPI_Finalize is collective: after this barrier every user send of the
  // run has been injected, so the drain below sees all leftovers.
  ctx.raw_barrier(mpism::kCommWorld);
  for (const mpism::CommId comm : known_comms_) {
    mpism::Status st;
    while (ctx.raw_iprobe(mpism::kAnySource, mpism::kAnyTag, comm, &st)) {
      const mpism::Status got = ctx.raw_recv(st.source, st.tag, comm,
                                             &drained_payload_,
                                             &drained_clock_);
      mpism::ReqCompletion c;
      c.kind = mpism::ReqKind::kRecv;
      c.comm = comm;
      c.src_world = ctx.to_world(comm, got.source);
      c.tag = got.tag;
      c.seq = got.seq;
      c.msg_id = got.msg_id;
      c.status = got;
      c.payload = &drained_payload_;
      c.carried = &drained_clock_;
      receive_clock(ctx, c.src_world, c.seq, c.tag, comm,
                    transport_->on_recv_complete(ctx, c));
    }
  }
}

void DampiLayer::flush(bool) {
  if (flushed_) return;
  flushed_ = true;
  // The sink sums these counts over the run's ranks; the replay context
  // publishes the sums to the layer.* metrics once per run.
  shared_->sink->flush_rank({epochs_.data(), epoch_count_}, alerts_,
                            recv_epoch_count_, probe_epoch_count_,
                            potential_count_, late_count_);
  epoch_count_ = 0;
}

bool DampiLayer::reset_for_next_run() {
  flush(/*from_finalize=*/false);
  transport_->reset();
  clock_.reset();
  xmit_clock_.reset();
  nd_index_ = 0;
  recv_epoch_count_ = 0;
  probe_epoch_count_ = 0;
  potential_count_ = 0;
  late_count_ = 0;
  flushed_ = false;
  wildcard_reqs_.clear();
  latch_irecv_was_wildcard_ = false;
  latch_probe_was_wildcard_ = false;
  region_depth_ = 0;
  last_signature_ = EpochSignature{};
  signature_streak_ = 0;
  known_comms_.assign(1, mpism::kCommWorld);
  return true;
}

mpism::Rank DampiLayer::guided_source() {
  const std::int64_t frontier =
      shared_->max_decided_index[static_cast<std::size_t>(rank_)];
  if (static_cast<std::int64_t>(nd_index_) > frontier) {
    return mpism::kAnySource;  // past the guided_epoch: SELF_RUN
  }
  const mpism::Rank forced =
      shared_->schedule.lookup(EpochKey{rank_, nd_index_});
  if (forced == mpism::kAnySource) {
    // Inside the frontier but no decision: the ND event sequence shifted
    // relative to the recorded run (timing-dependent probes). Degrade to
    // self-run and count the divergence.
    shared_->divergences.fetch_add(1, std::memory_order_relaxed);
  }
  return forced;
}

EpochRecord& DampiLayer::record_epoch(mpism::ToolCtx& ctx,
                                      mpism::CommId comm, mpism::Tag tag,
                                      bool is_probe) {
  // The ND event is itself a clock event: tick first, then stamp the
  // epoch with the post-increment value. This is what makes both
  // concurrent sends of the paper's Fig. 3 (sender clocks 0) late with
  // respect to the epoch (clock 1): late iff m.LC < epoch.LC.
  clock_.tick();
  // Every field is assigned: the slot may be a spare record from an
  // earlier run (see TraceSink).
  if (epoch_count_ == epochs_.size()) epochs_.emplace_back();
  EpochRecord& rec = epochs_[epoch_count_++];
  rec.key = EpochKey{rank_, nd_index_++};
  rec.lc = clock_.lamport_value();
  rec.vc = clock_.vector_components();  // empty under Lamport clocks
  rec.comm = comm;
  rec.tag = tag;
  rec.is_probe = is_probe;
  rec.in_ignored_region = region_depth_ > 0;
  rec.auto_abstracted = false;
  rec.matched_src_world = -1;
  rec.matched_seq = 0;
  rec.opened_at = ctx.call_seq();
  rec.matched_at = 0;
  rec.alternatives.clear();
  // Automatic loop detection: after `auto_loop_threshold` consecutive ND
  // events with the same signature, the streak is a fixed communication
  // pattern; keep its self-run matches (the first `threshold` events of
  // the streak stay fully explored).
  const EpochSignature signature{comm, tag, is_probe};
  if (signature == last_signature_) {
    ++signature_streak_;
  } else {
    last_signature_ = signature;
    signature_streak_ = 1;
  }
  if (options_.auto_loop_threshold > 0 &&
      signature_streak_ > options_.auto_loop_threshold) {
    rec.in_ignored_region = true;
    rec.auto_abstracted = true;
  }
  if (is_probe) {
    ++probe_epoch_count_;
  } else {
    ++recv_epoch_count_;
  }
  DAMPI_TEVENT(obs::EventKind::kEpochOpen, obs::Phase::kInstant, rank_,
               static_cast<std::int32_t>(rec.key.nd_index), 0, rec.lc);
  return rec;
}

// --- sends -----------------------------------------------------------------

void DampiLayer::pre_isend(mpism::ToolCtx& ctx, mpism::SendCall& call) {
  unsafe_check(ctx, "send");
  transmit_clock().serialize_into(&send_clock_);
  DAMPI_TEVENT(obs::EventKind::kPiggybackAttach, obs::Phase::kInstant,
               static_cast<std::int32_t>(send_clock_.size()));
  transport_->on_pre_send(ctx, call, send_clock_);
}

// --- receives ---------------------------------------------------------------

void DampiLayer::pre_irecv(mpism::ToolCtx& ctx, mpism::RecvCall& call) {
  latch_irecv_was_wildcard_ = (call.src == mpism::kAnySource);
  if (!latch_irecv_was_wildcard_) return;
  const mpism::Rank forced = guided_source();
  if (forced != mpism::kAnySource) {
    // GUIDED_RUN: determinize the receive (paper: PMPI_Irecv with
    // GetSrcFromEpoch(LCi)).
    call.src = ctx.to_rel(call.comm, forced);
    DAMPI_CHECK_MSG(call.src != mpism::kAnySource,
                    "forced source is not a member of the communicator");
  }
}

void DampiLayer::post_irecv(mpism::ToolCtx& ctx, const mpism::RecvCall& call,
                            mpism::RequestId id) {
  if (!latch_irecv_was_wildcard_) return;
  latch_irecv_was_wildcard_ = false;
  record_epoch(ctx, call.comm, call.tag, /*is_probe=*/false);
  wildcard_reqs_[id] = epoch_count_ - 1;
  ctx.add_cost(options_.epoch_record_cost_us);
}

void DampiLayer::post_wait(mpism::ToolCtx& ctx, mpism::ReqCompletion& c) {
  if (c.kind != mpism::ReqKind::kRecv) return;
  // Retrieve the sender's clock (deferred until the source is known —
  // the paper's wildcard piggyback rule).
  const mpism::Bytes& msg_clock = transport_->on_recv_complete(ctx, c);

  // If this completion resolves one of our wildcard epochs, bind its
  // outcome first so it cannot be recorded as its own alternative.
  std::size_t index = 0;
  if (wildcard_reqs_.erase(c.id, &index)) {
    EpochRecord& epoch = epochs_[index];
    epoch.matched_src_world = c.src_world;
    epoch.matched_seq = c.seq;
    epoch.matched_at = ctx.call_seq();
    DAMPI_TEVENT(obs::EventKind::kEpochClose, obs::Phase::kInstant, rank_,
                 static_cast<std::int32_t>(epoch.key.nd_index),
                 c.src_world, c.seq);
    if (options_.deferred_clock_sync) {
      // §V: the Wait/Test is the synchronization point — only now may
      // outgoing traffic advertise this epoch's tick.
      xmit_clock_.merge_epoch(epoch.lc, epoch.vc);
    }
  }

  receive_clock(ctx, c.src_world, c.seq, c.tag, c.comm, msg_clock);
}

void DampiLayer::receive_clock(mpism::ToolCtx& ctx, mpism::Rank src_world,
                               std::uint64_t seq, mpism::Tag tag,
                               mpism::CommId comm,
                               const mpism::Bytes& msg_clock) {
  clock_.decode(msg_clock, &received_);
  find_potential_matches(ctx, src_world, seq, tag, comm, received_);
  // LCi = max(LCi, m.LC).
  merge_incoming(received_);
}

void DampiLayer::find_potential_matches(
    mpism::ToolCtx& ctx, mpism::Rank src_world, std::uint64_t seq,
    mpism::Tag tag, mpism::CommId comm,
    const ClockState::Received& msg_clock) {
  if (!msg_clock.present) return;
  bool late_for_any = false;
  // Every epoch the scan reaches costs late_analysis_cost_us, charged in
  // one call after the scan: nothing in it reads the rank's clock.
  std::uint64_t scanned = 0;
  // Newest-to-oldest; epochs of one rank are totally ordered by program
  // order, so once the message is causally after an epoch it is after all
  // older ones too.
  for (std::size_t i = epoch_count_; i-- > 0;) {
    EpochRecord& epoch = epochs_[i];
    if (clock_.is_after(msg_clock, epoch.lc, epoch.vc)) break;
    ++scanned;
    if (!clock_.is_late(msg_clock, epoch.lc, epoch.vc)) continue;
    late_for_any = true;
    if (epoch.in_ignored_region) continue;      // loop abstraction
    if (epoch.comm != comm) continue;
    if (epoch.tag != mpism::kAnyTag && epoch.tag != tag) continue;
    if (epoch.matched_src_world == src_world) continue;
    // Keep the earliest late send per source — MPI non-overtaking means
    // only the head of each channel could have matched instead.
    auto [slot, inserted] = epoch.alternatives.try_emplace(
        src_world, PotentialMatch{src_world, seq, tag, 0, ctx.call_seq()});
    if (inserted) {
      ++potential_count_;
      DAMPI_TEVENT(obs::EventKind::kLateSend, obs::Phase::kInstant, src_world,
                   static_cast<std::int32_t>(epoch.key.nd_index), tag, seq);
    } else if (seq < slot->second.seq) {
      slot->second = PotentialMatch{src_world, seq, tag, 0,
                                    slot->second.seen_at};
    }
  }
  if (scanned != 0) ctx.add_cost_times(options_.late_analysis_cost_us, scanned);
  if (late_for_any) ++late_count_;
}

// --- probes -----------------------------------------------------------------

void DampiLayer::pre_probe(mpism::ToolCtx& ctx, mpism::ProbeCall& call) {
  latch_probe_was_wildcard_ = (call.src == mpism::kAnySource);
  if (!latch_probe_was_wildcard_) return;
  const mpism::Rank forced = guided_source();
  if (forced != mpism::kAnySource) {
    call.src = ctx.to_rel(call.comm, forced);
    // A forced nonblocking probe must actually observe the decided
    // message: block for it (the decision came from a run where the
    // message was seen, so the source will send it).
    call.blocking = true;
  }
}

void DampiLayer::post_probe(mpism::ToolCtx& ctx, const mpism::ProbeCall& call,
                            bool flag, mpism::Status& status) {
  if (!latch_probe_was_wildcard_) return;
  latch_probe_was_wildcard_ = false;
  // Only a successful probe is a committed ND event (paper: record an
  // Iprobe only when the runtime sets its flag).
  if (!flag) return;
  EpochRecord& epoch =
      record_epoch(ctx, call.comm, call.tag, /*is_probe=*/true);
  epoch.matched_src_world = ctx.to_world(call.comm, status.source);
  epoch.matched_seq = status.seq;
  epoch.matched_at = epoch.opened_at;
  DAMPI_TEVENT(obs::EventKind::kEpochClose, obs::Phase::kInstant, rank_,
               static_cast<std::int32_t>(epoch.key.nd_index),
               epoch.matched_src_world, epoch.matched_seq);
  if (options_.deferred_clock_sync) {
    // A probe completes its own epoch; synchronize immediately.
    xmit_clock_.merge_epoch(epoch.lc, epoch.vc);
  }
  ctx.add_cost(options_.epoch_record_cost_us);
  // No piggyback is received: probes do not dequeue the message (§II-E).
}

// --- collectives ------------------------------------------------------------

void DampiLayer::pre_collective(mpism::ToolCtx& ctx, mpism::CollCall& call) {
  unsafe_check(ctx, "collective");
  transmit_clock().serialize_into(&call.pb_contribution);
}

void DampiLayer::post_collective(mpism::ToolCtx& ctx,
                                 const mpism::CollCall& call,
                                 const mpism::CollResult& result) {
  if (result.has_incoming) {
    clock_.decode(result.incoming, &received_);
    merge_incoming(received_);
  }
  if (result.new_comm != mpism::kCommNull) {
    transport_->on_new_comm(ctx, result.new_comm);
    known_comms_.push_back(result.new_comm);
  }
  if (call.kind == mpism::CollKind::kCommFree) {
    std::erase(known_comms_, call.comm);
  }
}

// --- misc --------------------------------------------------------------------

void DampiLayer::on_pcontrol(mpism::ToolCtx&, int level, const std::string&) {
  if (level == 1) {
    ++region_depth_;
  } else if (level == 0 && region_depth_ > 0) {
    --region_depth_;
  }
}

void DampiLayer::unsafe_check(mpism::ToolCtx& ctx, const char* op) {
  if (wildcard_reqs_.empty()) return;
  // With deferred clock sync the transmitted clock excludes pending
  // epochs, so the pattern is handled, not merely detected.
  if (options_.deferred_clock_sync) return;
  // A clock-transmitting operation while a wildcard Irecv is still
  // pending: the paper's §V omission pattern. The transmitted clock
  // already reflects the epoch's tick even though the match has not
  // completed, so late-message analysis at the peers may under-report.
  alerts_.push_back(UnsafeAlert{
      rank_, strfmt("rank %d issued a clock-transmitting %s while %zu "
                    "wildcard receive(s) were pending completion",
                    rank_, op, wildcard_reqs_.size()),
      ctx.call_seq()});
}

// --- setup -------------------------------------------------------------------

mpism::ToolSetup make_dampi_setup(std::shared_ptr<DampiShared> shared) {
  mpism::ToolSetup setup;
  LayerStackFactory extra;
  if (shared->options.extra_layers_per_run) {
    extra = shared->options.extra_layers_per_run();
  }
  setup.make_stack = [shared, extra](int rank, int nprocs) {
    std::vector<std::unique_ptr<mpism::ToolLayer>> stack;
    if (extra) {
      auto extras = extra(rank, nprocs);
      for (auto& layer : extras) stack.push_back(std::move(layer));
    }
    stack.push_back(std::make_unique<DampiLayer>(
        rank, nprocs, shared,
        piggyback::make_transport(shared->options.transport)));
    return stack;
  };
  setup.coll_merge = &ClockState::merge_serialized;
  return setup;
}

}  // namespace dampi::core
