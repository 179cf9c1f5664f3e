// The paper's illustrative programs, reproduced as runnable workloads:
//
//  - fig3:  the replay example (§II-E) — a wildcard receive whose buggy
//           outcome only appears when the alternate match is enforced;
//  - fig4:  the cross-coupled wildcards (§II-F) where Lamport clocks lose
//           completeness and vector clocks do not;
//  - fig10: the §V omission pattern — a barrier transmits the epoch's
//           clock before the wildcard receive's Wait, hiding a competitor
//           send from late-message analysis (the unsafe-pattern monitor
//           flags it).
//
// Plus small deadlock/leak fixtures used by tests and examples.
#pragma once

#include "mpism/proc.hpp"
#include "mpism/runtime.hpp"

namespace dampi::workloads {

/// Fig. 3 (3 ranks): P0 sends 22, P2 sends 33, P1 receives one of them
/// with a wildcard and crashes iff it got 33.
void fig3_wildcard_bug(mpism::Proc& p);

/// Fig. 3 variant with no error branch, for overhead/coverage tests.
void fig3_benign(mpism::Proc& p);

/// Fig. 4 (4 ranks): cross-coupled wildcard receives. Deterministic
/// completion; interesting only for what the clocks record.
void fig4_cross_coupled(mpism::Proc& p);

/// Fig. 10 (3 ranks): wildcard Irecv, then a barrier crossed before the
/// Wait; P2's competing send is issued after the barrier and crashes P1
/// if matched.
void fig10_unsafe_pattern(mpism::Proc& p);

/// 2 ranks: mutual blocking receives (plain deadlock).
void simple_deadlock(mpism::Proc& p);

/// 2 ranks: a deadlock reachable only under one wildcard outcome — if
/// the wildcard matches rank 2's send, rank 1 then waits for a message
/// nobody sends. Exposed by replay, hidden in the biased self-run.
void wildcard_dependent_deadlock(mpism::Proc& p);

/// Any ranks: leaks one duplicated communicator and one request per rank.
void leaky_program(mpism::Proc& p);

/// Deterministic wildcard fan-in: every non-root rank sends one message
/// per round (tag = round) *before* a barrier, then the root receives
/// them all with wildcards. Because every candidate is queued before any
/// receive posts, the self-run outcome and the discovered alternatives
/// are fully deterministic — the fixture for exact interleaving-count
/// assertions (bounded mixing, k=0 formula).
void fan_in_rounds(mpism::Proc& p, int rounds);

/// `groups` disjoint wildcard fan-ins: group g is ranks {3g, 3g+1,
/// 3g+2}; the two non-root members send to root 3g (tag g) before a
/// global barrier, then the root drains them with two wildcard
/// receives. The groups never exchange a message, so under vector
/// clocks every cross-group decision pair commutes: POR off walks the
/// full 2^groups cross-product while sleep-set pruning needs only
/// groups+1 interleavings for the same per-epoch coverage. Ranks beyond
/// 3*groups just hit the barrier.
void fan_in_groups(mpism::Proc& p, int groups);

/// Adversarial POR fixture: every rank sends one message (tag = round)
/// to every other rank, a barrier, then every rank drains its size-1
/// incoming with wildcard receives. All candidate sets overlap, so no
/// decision pair commutes — sleep-set pruning must prune nothing and
/// match POR off exactly.
void all_pairs_churn(mpism::Proc& p, int rounds);

/// Distributed-campaign fixture: fan_in_rounds plus `spin_us` of
/// busy-work at the root per received message. The wildcard fan-in
/// gives the campaign a wide, deterministic frontier to shard while the
/// compute makes each interleaving cost real virtual time, so worker
/// scaling (and mid-shard kills) are observable instead of instant.
void dist_fanout(mpism::Proc& p, int rounds, double spin_us);

/// 2+ ranks, never terminates: rank 0 blocks on a receive nobody
/// satisfies while rank 1 spins on iprobe for a message nobody sends,
/// burning virtual time each poll. The live spinner defeats the
/// blocked-count deadlock detector, so without a per-run watchdog the
/// run wedges forever — the fixture for kHang verdicts.
void livelock(mpism::Proc& p);

}  // namespace dampi::workloads
