// Wildcard match policies: how the *runtime* resolves MPI_ANY_SOURCE when
// several sources could match (the paper's SELF_RUN behaviour, i.e. "let
// the MPI runtime determine the first matching send").
//
// The verifier never steers the runtime through a policy — guided replays
// rewrite ANY_SOURCE to a concrete source in the tool layer, exactly as
// DAMPI determinizes receives. Policies exist so that (a) self-runs are
// reproducible (seeded), and (b) tests can bias the runtime towards
// different native outcomes, modelling the paper's observation that a
// given MPI implementation biases execution towards the same outcomes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "mpism/types.hpp"

namespace dampi::mpism {

struct Envelope;

/// One matchable candidate for a wildcard receive/probe: the head (lowest
/// unmatched seq) message from one source.
struct MatchCandidate {
  Rank src_world = -1;
  Tag tag = kAnyTag;
  std::uint64_t seq = 0;
  std::uint64_t msg_id = 0;
  /// The queued message itself, valid until its queue next changes
  /// (what MatchIndex::take removes).
  const Envelope* env = nullptr;
};

/// Strategy interface. choose() is called with a non-empty candidate list
/// (one entry per eligible source, ordered by source rank) and returns the
/// index of the winner.
class MatchPolicy {
 public:
  virtual ~MatchPolicy() = default;
  virtual std::size_t choose(const std::vector<MatchCandidate>& c) = 0;
  /// Back to the state make_policy() returned (the engine resets its
  /// policy between runs).
  virtual void reset() {}
};

/// Deterministically picks the lowest source rank — models an MPI library
/// that always scans its queues in the same order (the bias the paper
/// says masks errors).
class LowestSourcePolicy final : public MatchPolicy {
 public:
  std::size_t choose(const std::vector<MatchCandidate>& c) override;
};

/// Picks the earliest-arrived message (lowest msg_id), a FIFO runtime.
class FifoArrivalPolicy final : public MatchPolicy {
 public:
  std::size_t choose(const std::vector<MatchCandidate>& c) override;
};

/// Seeded uniform choice; reproducible per seed.
class SeededRandomPolicy final : public MatchPolicy {
 public:
  explicit SeededRandomPolicy(std::uint64_t seed)
      : seed_(seed), rng_(seed) {}
  std::size_t choose(const std::vector<MatchCandidate>& c) override;
  void reset() override { rng_ = Rng(seed_); }

 private:
  std::uint64_t seed_;
  Rng rng_;
};

enum class PolicyKind { kLowestSource, kFifoArrival, kSeededRandom };

std::unique_ptr<MatchPolicy> make_policy(PolicyKind kind, std::uint64_t seed);

}  // namespace dampi::mpism
