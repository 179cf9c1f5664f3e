// Matching-index equivalence suite (ctest label `match`):
//
//  - structure-level differential fuzz: random streams of
//    push/find/take/post/match operations driven against the linear and
//    indexed MatchIndex side by side, asserting every query answer is
//    identical (candidate vectors, specific winners, posted-receive
//    matches, drained envelopes); takes remove a query's answer, as the
//    engine's do;
//  - directed non-overtaking properties: per-source FIFO delivery,
//    wildcard candidates == set of lane heads,
//    earliest-posted-wins across the four posted lanes;
//  - program-level differential: >= 1000 randomized small programs run
//    under the deterministic coop scheduler with both matchers,
//    asserting bit-identical RunReport fingerprints (doubles printed as
//    %a, so "identical" means identical);
//  - thread-scheduler subset: schedule-independent invariants agree
//    between matchers (and gives TSan a workout over the indexed lanes);
//  - deadlock parity: both matchers report the same verdicts on the
//    deadlock patterns under both schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "mpism/match_index.hpp"
#include "obs/metrics.hpp"
#include "support/run_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using dampi::strfmt;
using mpism::Bytes;
using mpism::CommId;
using mpism::Envelope;
using mpism::kAnySource;
using mpism::kAnyTag;
using mpism::kCommWorld;
using mpism::MatchCandidate;
using mpism::MatchIndex;
using mpism::MatchKind;
using mpism::pack;
using mpism::Rank;
using mpism::RequestId;
using mpism::RequestRecord;
using mpism::Tag;

// ---------------------------------------------------------------------
// Structure-level differential harness: every operation is applied to
// both implementations; every query must answer identically.

struct IndexPair {
  std::unique_ptr<MatchIndex> linear =
      mpism::make_match_index(MatchKind::kLinear);
  std::unique_ptr<MatchIndex> indexed =
      mpism::make_match_index(MatchKind::kIndexed);
};

Envelope make_env(Rank src, Tag tag, CommId comm, std::uint64_t seq,
                  std::uint64_t msg_id) {
  Envelope e;
  e.src_world = src;
  e.dst_world = 0;
  e.tag = tag;
  e.comm = comm;
  e.seq = seq;
  e.msg_id = msg_id;
  e.payload = pack<std::uint64_t>(msg_id * 31 + 7);
  return e;
}

void expect_env_eq(const Envelope& a, const Envelope& b) {
  EXPECT_EQ(a.src_world, b.src_world);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.comm, b.comm);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.msg_id, b.msg_id);
  EXPECT_EQ(a.payload, b.payload);
}

void expect_same_specific(const IndexPair& p, Rank src, Tag tag, CommId comm) {
  const Envelope* a = p.linear->find_specific(src, tag, comm);
  const Envelope* b = p.indexed->find_specific(src, tag, comm);
  ASSERT_EQ(a == nullptr, b == nullptr)
      << "find_specific(" << src << "," << tag << "," << comm << ")";
  if (a != nullptr) expect_env_eq(*a, *b);
}

void expect_same_candidates(const IndexPair& p, Tag tag, CommId comm) {
  std::vector<MatchCandidate> a;
  std::vector<MatchCandidate> b;
  p.linear->wildcard_candidates(tag, comm, &a);
  p.indexed->wildcard_candidates(tag, comm, &b);
  ASSERT_EQ(a.size(), b.size())
      << "wildcard_candidates(" << tag << "," << comm << ")";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_world, b[i].src_world) << "candidate " << i;
    EXPECT_EQ(a[i].tag, b[i].tag) << "candidate " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "candidate " << i;
    EXPECT_EQ(a[i].msg_id, b[i].msg_id) << "candidate " << i;
  }
  EXPECT_EQ(p.linear->has_candidates(tag, comm), !a.empty());
  EXPECT_EQ(p.indexed->has_candidates(tag, comm), !b.empty());
}

constexpr Rank kFuzzSources = 5;
constexpr Tag kFuzzTags = 4;
const CommId kFuzzComms[] = {kCommWorld, static_cast<CommId>(kCommWorld + 1)};

/// One queued unexpected message, as the shadow state remembers it.
struct LiveMsg {
  std::uint64_t id;
  Rank src;
  Tag tag;
  CommId comm;
};

struct ShadowState {
  std::vector<LiveMsg> live;                 // queued unexpected messages
  std::vector<RequestRecord*> live_posted;   // still-indexed receives
  std::vector<std::unique_ptr<RequestRecord>> records;  // owns all posted
  std::uint64_t next_msg_id = 1;
  std::uint64_t next_seq[kFuzzSources][2] = {};
  RequestId next_req = 1;
};

void fuzz_step(Rng& rng, IndexPair& p, ShadowState& st) {
  const auto pick_tag = [&](double any_prob) {
    return rng.next_bool(any_prob)
               ? kAnyTag
               : static_cast<Tag>(rng.next_below(kFuzzTags));
  };
  const std::size_t comm_idx = rng.next_below(2);
  const CommId comm = kFuzzComms[comm_idx];
  const auto op = rng.next_below(100);
  if (op < 30) {
    // Push one unexpected message into both (two identical copies).
    const Rank src = static_cast<Rank>(rng.next_below(kFuzzSources));
    const Tag tag = static_cast<Tag>(rng.next_below(kFuzzTags));
    const std::uint64_t seq = st.next_seq[src][comm_idx]++;
    const std::uint64_t id = st.next_msg_id++;
    p.linear->push_unexpected(make_env(src, tag, comm, seq, id));
    p.indexed->push_unexpected(make_env(src, tag, comm, seq, id));
    st.live.push_back({id, src, tag, comm});
  } else if (op < 45) {
    // Specific-receive lookup, concrete or wildcard tag.
    expect_same_specific(p, static_cast<Rank>(rng.next_below(kFuzzSources)),
                         pick_tag(0.3), comm);
  } else if (op < 55) {
    expect_same_candidates(p, pick_tag(0.4), comm);
  } else if (op < 70) {
    // Take what a receive would: the specific answer for a random live
    // message's (src, tag, comm), or a wildcard candidate (the engine only
    // ever takes a query's answer).
    if (st.live.empty()) return;
    const LiveMsg& m = st.live[rng.next_below(st.live.size())];
    const Envelope* qa = nullptr;
    const Envelope* qb = nullptr;
    if (rng.next_bool(0.5)) {
      const Tag tag = rng.next_bool(0.3) ? kAnyTag : m.tag;
      qa = p.linear->find_specific(m.src, tag, m.comm);
      qb = p.indexed->find_specific(m.src, tag, m.comm);
    } else {
      std::vector<MatchCandidate> ca;
      std::vector<MatchCandidate> cb;
      const Tag tag = rng.next_bool(0.3) ? kAnyTag : m.tag;
      p.linear->wildcard_candidates(tag, m.comm, &ca);
      p.indexed->wildcard_candidates(tag, m.comm, &cb);
      ASSERT_EQ(ca.size(), cb.size());
      if (ca.empty()) return;
      const std::size_t pick = rng.next_below(ca.size());
      qa = ca[pick].env;
      qb = cb[pick].env;
    }
    ASSERT_NE(qa, nullptr);
    ASSERT_NE(qb, nullptr);
    expect_env_eq(*qa, *qb);
    const Envelope a = p.linear->take(qa);
    const Envelope b = p.indexed->take(qb);
    expect_env_eq(a, b);
    std::erase_if(st.live, [&a](const LiveMsg& x) { return x.id == a.msg_id; });
  } else if (op < 85) {
    // Post a receive. Neither implementation mutates the record, so the
    // same object can be indexed by both; match_posted must then return
    // the very same pointer on both sides.
    auto rec = std::make_unique<RequestRecord>();
    rec->id = st.next_req++;
    rec->kind = mpism::ReqKind::kRecv;
    rec->posted_src_world = rng.next_bool(0.4)
                                ? kAnySource
                                : static_cast<Rank>(
                                      rng.next_below(kFuzzSources));
    rec->posted_tag = pick_tag(0.4);
    rec->comm = comm;
    p.linear->post_recv(rec.get());
    p.indexed->post_recv(rec.get());
    st.live_posted.push_back(rec.get());
    st.records.push_back(std::move(rec));
  } else {
    // Probe the posted side with a synthetic arrival.
    Envelope e = make_env(static_cast<Rank>(rng.next_below(kFuzzSources)),
                          static_cast<Tag>(rng.next_below(kFuzzTags)), comm,
                          0, 0);
    RequestRecord* a = p.linear->match_posted(e);
    RequestRecord* b = p.indexed->match_posted(e);
    ASSERT_EQ(a, b) << "match_posted diverged";
    if (a != nullptr) std::erase(st.live_posted, a);
  }
}

/// Exhaustive sweep over the whole query space, then drain both queues
/// and check the pool returns to empty.
void final_sweep_and_drain(Rng& rng, IndexPair& p, ShadowState& st) {
  for (const CommId comm : kFuzzComms) {
    for (Tag tag = 0; tag < kFuzzTags; ++tag) {
      expect_same_candidates(p, tag, comm);
      for (Rank src = 0; src < kFuzzSources; ++src) {
        expect_same_specific(p, src, tag, comm);
      }
    }
    expect_same_candidates(p, kAnyTag, comm);
    for (Rank src = 0; src < kFuzzSources; ++src) {
      expect_same_specific(p, src, kAnyTag, comm);
    }
  }
  while (!st.live.empty()) {
    const LiveMsg& m = st.live[rng.next_below(st.live.size())];
    const Envelope* qa = p.linear->find_specific(m.src, m.tag, m.comm);
    const Envelope* qb = p.indexed->find_specific(m.src, m.tag, m.comm);
    ASSERT_NE(qa, nullptr);
    ASSERT_NE(qb, nullptr);
    const Envelope a = p.linear->take(qa);
    expect_env_eq(a, p.indexed->take(qb));
    std::erase_if(st.live, [&a](const LiveMsg& x) { return x.id == a.msg_id; });
  }
  // Drain the posted side: walk every concrete (src, tag, comm) until
  // both say "no compatible receive"; they must hand out the same
  // records in the same order throughout.
  for (const CommId comm : kFuzzComms) {
    for (Rank src = 0; src < kFuzzSources; ++src) {
      for (Tag tag = 0; tag < kFuzzTags; ++tag) {
        for (;;) {
          const Envelope e = make_env(src, tag, comm, 0, 0);
          RequestRecord* a = p.linear->match_posted(e);
          RequestRecord* b = p.indexed->match_posted(e);
          ASSERT_EQ(a, b);
          if (a == nullptr) break;
          std::erase(st.live_posted, a);
        }
      }
    }
  }
  EXPECT_TRUE(st.live_posted.empty());
  EXPECT_EQ(p.indexed->pool_stats().live, 0u);
}

TEST(MatchIndexDifferential, RandomOpStreams) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed * 7919);
    IndexPair pair;
    ShadowState st;
    const int steps = 100 + static_cast<int>(rng.next_below(400));
    for (int i = 0; i < steps; ++i) {
      fuzz_step(rng, pair, st);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "diverged at seed " << seed << " step " << i;
      }
    }
    final_sweep_and_drain(rng, pair, st);
    ASSERT_FALSE(::testing::Test::HasFatalFailure())
        << "diverged at seed " << seed << " during drain";
  }
}

// A long single stream: deep queues exercise lane growth, bitmap word
// boundaries, and slab-pool reuse after full drains.
TEST(MatchIndexDifferential, DeepQueueStream) {
  Rng rng(0xdeadbeef);
  IndexPair pair;
  ShadowState st;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4000; ++i) fuzz_step(rng, pair, st);
    final_sweep_and_drain(rng, pair, st);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "round " << round;
  }
  // Round 2+ should be served almost entirely from the freelist.
  const auto stats = pair.indexed->pool_stats();
  EXPECT_GT(stats.reused, 0u);
}

// ---------------------------------------------------------------------
// Directed non-overtaking properties.

TEST(MatchIndexProperty, PerSourceFifoOrder) {
  for (const MatchKind kind : {MatchKind::kLinear, MatchKind::kIndexed}) {
    auto idx = mpism::make_match_index(kind);
    std::uint64_t id = 1;
    // Source 1 sends seq 0..9 on tag 7; source 2 interleaves on the same
    // tag. Specific receives from source 1 must drain in seq order no
    // matter how the streams interleave.
    for (std::uint64_t s = 0; s < 10; ++s) {
      idx->push_unexpected(make_env(1, 7, kCommWorld, s, id++));
      if (s % 2 == 0) {
        idx->push_unexpected(make_env(2, 7, kCommWorld, s / 2, id++));
      }
    }
    for (std::uint64_t s = 0; s < 10; ++s) {
      const Envelope* head = idx->find_specific(1, 7, kCommWorld);
      ASSERT_NE(head, nullptr) << mpism::match_spec(kind) << " seq " << s;
      EXPECT_EQ(head->seq, s) << mpism::match_spec(kind);
      idx->take(head);
    }
    EXPECT_EQ(idx->find_specific(1, 7, kCommWorld), nullptr);
    EXPECT_NE(idx->find_specific(2, 7, kCommWorld), nullptr);
  }
}

TEST(MatchIndexProperty, WildcardCandidatesAreLaneHeads) {
  for (const MatchKind kind : {MatchKind::kLinear, MatchKind::kIndexed}) {
    auto idx = mpism::make_match_index(kind);
    idx->push_unexpected(make_env(3, 5, kCommWorld, 0, 2));
    idx->push_unexpected(make_env(1, 5, kCommWorld, 0, 3));
    idx->push_unexpected(make_env(3, 5, kCommWorld, 1, 4));
    idx->push_unexpected(make_env(1, 9, kCommWorld, 1, 5));

    std::vector<MatchCandidate> c;
    idx->wildcard_candidates(5, kCommWorld, &c);
    ASSERT_EQ(c.size(), 2u) << mpism::match_spec(kind);
    EXPECT_EQ(c[0].src_world, 1);  // sorted by source
    EXPECT_EQ(c[0].msg_id, 3u);
    EXPECT_EQ(c[1].src_world, 3);
    EXPECT_EQ(c[1].msg_id, 2u);  // lane head = earliest from source 3

    // ANY_TAG: source 1's earliest across tags is msg 3 (tag 5), source
    // 3's is msg 2.
    idx->wildcard_candidates(kAnyTag, kCommWorld, &c);
    ASSERT_EQ(c.size(), 2u) << mpism::match_spec(kind);
    EXPECT_EQ(c[0].src_world, 1);
    EXPECT_EQ(c[0].msg_id, 3u);
    EXPECT_EQ(c[1].src_world, 3);
    EXPECT_EQ(c[1].msg_id, 2u);
  }
}

TEST(MatchIndexProperty, EarliestPostedWinsAcrossLaneShapes) {
  for (const MatchKind kind : {MatchKind::kLinear, MatchKind::kIndexed}) {
    auto idx = mpism::make_match_index(kind);
    // Four receives, one per lane shape, posted in this order; an
    // arrival from (src 1, tag 5) is compatible with all four and must
    // drain them in post order.
    RequestRecord recs[4];
    const Rank srcs[4] = {kAnySource, 1, kAnySource, 1};
    const Tag tags[4] = {5, kAnyTag, kAnyTag, 5};
    for (int i = 0; i < 4; ++i) {
      recs[i].id = static_cast<RequestId>(i + 1);
      recs[i].kind = mpism::ReqKind::kRecv;
      recs[i].posted_src_world = srcs[i];
      recs[i].posted_tag = tags[i];
      idx->post_recv(&recs[i]);
    }
    const Envelope arrival = make_env(1, 5, kCommWorld, 0, 1);
    for (int i = 0; i < 4; ++i) {
      RequestRecord* got = idx->match_posted(arrival);
      ASSERT_NE(got, nullptr) << mpism::match_spec(kind) << " i=" << i;
      EXPECT_EQ(got, &recs[i]) << mpism::match_spec(kind)
                               << " posted order violated at " << i;
    }
    EXPECT_EQ(idx->match_posted(arrival), nullptr);
    // An incompatible arrival never matches a concrete-source receive.
    RequestRecord strict;
    strict.id = 9;
    strict.kind = mpism::ReqKind::kRecv;
    strict.posted_src_world = 2;
    strict.posted_tag = 5;
    idx->post_recv(&strict);
    EXPECT_EQ(idx->match_posted(arrival), nullptr);
    const Envelope from2 = make_env(2, 5, kCommWorld, 0, 2);
    EXPECT_EQ(idx->match_posted(from2), &strict);
  }
}

// ---------------------------------------------------------------------
// Program-level differential: randomized programs, both matchers, same
// deterministic coop schedule => bit-identical reports.

struct ProgramCase {
  std::uint64_t seed;
  int nprocs;
  int phases;
  int messages_per_phase;
};

struct ScriptMessage {
  int src;
  int dst;
  int tag;
  bool synchronous;
};

/// Valid-by-construction message soup (receives posted before sends per
/// phase), same shape as test_engine_fuzz but smaller and with per-rank
/// probe sprinkling — probes exercise the candidate queries without
/// consuming messages.
std::vector<std::vector<ScriptMessage>> build_script(const ProgramCase& c) {
  Rng rng(c.seed);
  std::vector<std::vector<ScriptMessage>> phases(
      static_cast<std::size_t>(c.phases));
  for (auto& phase : phases) {
    const int count =
        1 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(c.messages_per_phase)));
    for (int m = 0; m < count; ++m) {
      ScriptMessage msg;
      msg.src = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(c.nprocs)));
      do {
        msg.dst = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(c.nprocs)));
      } while (msg.dst == msg.src);
      msg.tag = static_cast<int>(rng.next_below(3));
      msg.synchronous = rng.next_bool(0.3);
      phase.push_back(msg);
    }
  }
  return phases;
}

void run_script(mpism::Proc& p,
                const std::vector<std::vector<ScriptMessage>>& script,
                std::uint64_t seed) {
  Rng rng(seed ^ 0xabcdef);
  int phase_index = 0;
  for (const auto& phase : script) {
    const bool wildcard_phase = rng.next_bool(0.5);
    std::vector<RequestId> recvs;
    for (const ScriptMessage& m : phase) {
      if (m.dst != p.rank()) continue;
      recvs.push_back(
          p.irecv(wildcard_phase ? kAnySource : m.src, kAnyTag));
    }
    std::vector<RequestId> sends;
    for (const ScriptMessage& m : phase) {
      if (m.src != p.rank()) continue;
      sends.push_back(m.synchronous
                          ? p.issend(m.dst, m.tag, pack<int>(m.tag))
                          : p.isend(m.dst, m.tag, pack<int>(m.tag)));
    }
    if (rng.next_bool(0.5)) p.iprobe(kAnySource, kAnyTag);
    p.waitall(recvs);
    p.waitall(sends);
    if (phase_index % 2 == 0) {
      p.barrier();
    } else {
      p.allreduce_u64(1, mpism::ReduceOp::kSumU64);
    }
    ++phase_index;
  }
}

/// Every deterministic field of a RunReport, doubles in %a hex form (the
/// test_sched.cpp fingerprint — wall_seconds is excluded by design).
std::string fingerprint(const mpism::RunReport& r) {
  std::string s = strfmt(
      "completed=%d deadlocked=%d vtime=%a comm_leaks=%d req_leaks=%llu "
      "msgs=%llu tool_msgs=%llu",
      r.completed ? 1 : 0, r.deadlocked ? 1 : 0, r.vtime_us, r.comm_leaks,
      static_cast<unsigned long long>(r.request_leaks),
      static_cast<unsigned long long>(r.messages_sent),
      static_cast<unsigned long long>(r.stats.tool_messages));
  s += "\ndeadlock_detail=" + r.deadlock_detail;
  for (const auto& e : r.errors) {
    s += strfmt("\nerror rank=%d ", e.rank) + e.message;
  }
  for (std::size_t c = 0; c < mpism::OpStats::kNumCategories; ++c) {
    s += strfmt("\ncat%zu:", c);
    for (const auto v : r.stats.counts[c]) {
      s += strfmt(" %llu", static_cast<unsigned long long>(v));
    }
  }
  return s;
}

mpism::RunOptions case_options(const ProgramCase& c, MatchKind match,
                               mpism::SchedulerKind sched_kind) {
  mpism::RunOptions options;
  options.nprocs = c.nprocs;
  options.match = match;
  options.sched.kind = sched_kind;
  options.sched.seed = c.seed;
  if (sched_kind == mpism::SchedulerKind::kCoop) {
    options.sched.pick = (c.seed % 2 == 0)
                             ? mpism::SchedPolicy::kRoundRobin
                             : mpism::SchedPolicy::kRandomSeeded;
  }
  // Cycle the wildcard policies: seeded-random is the sharpest
  // discriminator (any divergence in candidate vector *content or
  // order* changes which source wins and snowballs into the stats).
  switch (c.seed % 3) {
    case 0: options.policy = mpism::PolicyKind::kLowestSource; break;
    case 1: options.policy = mpism::PolicyKind::kFifoArrival; break;
    default: options.policy = mpism::PolicyKind::kSeededRandom; break;
  }
  options.policy_seed = c.seed + 1;
  return options;
}

// Acceptance bar from the issue: >= 1000 randomized programs with
// bit-identical RunReport fingerprints between matchers. The coop
// scheduler makes whole runs deterministic, so any matcher divergence
// (different wildcard winner, different posted receive, different
// message accounting) shows up as a fingerprint mismatch.
TEST(MatchDifferentialPrograms, CoopFingerprintsIdentical1000) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    ProgramCase c;
    c.seed = seed * 1315423911u;
    c.nprocs = 2 + static_cast<int>(seed % 5);  // 2..6
    c.phases = 2;
    c.messages_per_phase = 2 * c.nprocs;
    const auto script = build_script(c);
    const auto program = [&script, &c](mpism::Proc& p) {
      run_script(p, script, c.seed + static_cast<std::uint64_t>(p.rank()));
    };
    const auto linear = run_program(
        case_options(c, MatchKind::kLinear, mpism::SchedulerKind::kCoop),
        program);
    const auto indexed = run_program(
        case_options(c, MatchKind::kIndexed, mpism::SchedulerKind::kCoop),
        program);
    ASSERT_TRUE(linear.ok()) << "seed " << seed << ": "
                             << linear.deadlock_detail;
    ASSERT_EQ(fingerprint(linear), fingerprint(indexed))
        << "matchers diverged at seed " << seed << " (nprocs " << c.nprocs
        << ")";
    ++checked;
  }
  EXPECT_EQ(checked, 1000);
}

// Thread-scheduler subset: match order is host-timing-dependent, so only
// schedule-independent invariants are comparable — but those must agree.
// (Also the TSan workout for the indexed lanes: label `match` is in the
// tier-1 sanitizer sweep.)
TEST(MatchDifferentialPrograms, ThreadSchedulerInvariantsAgree) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    ProgramCase c;
    c.seed = seed * 2654435761u;
    c.nprocs = 2 + static_cast<int>(seed % 4);  // 2..5
    c.phases = 2;
    c.messages_per_phase = 2 * c.nprocs;
    const auto script = build_script(c);
    std::uint64_t expected_messages = 0;
    for (const auto& phase : script) expected_messages += phase.size();
    const auto program = [&script, &c](mpism::Proc& p) {
      run_script(p, script, c.seed + static_cast<std::uint64_t>(p.rank()));
    };
    for (const MatchKind kind : {MatchKind::kLinear, MatchKind::kIndexed}) {
      const auto report = run_program(
          case_options(c, kind, mpism::SchedulerKind::kThread), program);
      ASSERT_TRUE(report.completed)
          << mpism::match_spec(kind) << " seed " << seed << ": "
          << report.deadlock_detail;
      ASSERT_TRUE(report.errors.empty())
          << mpism::match_spec(kind) << " seed " << seed << ": "
          << report.errors[0].message;
      EXPECT_EQ(report.messages_sent, expected_messages)
          << mpism::match_spec(kind) << " seed " << seed;
      EXPECT_EQ(report.comm_leaks, 0) << mpism::match_spec(kind);
      EXPECT_EQ(report.request_leaks, 0u) << mpism::match_spec(kind);
    }
  }
}

// Deadlock verdict parity: both matchers reach the same verdict on the
// deadlock patterns under both schedulers, and under coop the whole
// report (detail text included) is bit-identical.
TEST(MatchDifferentialPrograms, DeadlockVerdictParity) {
  struct Pattern {
    const char* name;
    mpism::ProgramFn fn;
    int nprocs;
  };
  const Pattern patterns[] = {
      {"simple_deadlock", workloads::simple_deadlock, 2},
      {"wildcard_dependent_deadlock",
       workloads::wildcard_dependent_deadlock, 3},
  };
  for (const auto& pat : patterns) {
    for (const auto sched_kind : {mpism::SchedulerKind::kThread,
                                  mpism::SchedulerKind::kCoop}) {
      std::optional<std::string> coop_fp;
      for (const MatchKind kind :
           {MatchKind::kLinear, MatchKind::kIndexed}) {
        mpism::RunOptions options;
        options.nprocs = pat.nprocs;
        options.match = kind;
        options.sched.kind = sched_kind;
        // Lowest-source steers wildcard_dependent_deadlock down the
        // benign path deterministically... except simple_deadlock has no
        // wildcard at all; both must deadlock under either policy. Use
        // fifo-arrival so the wildcard pattern's verdict depends only on
        // arrival order, which coop fixes.
        options.policy = mpism::PolicyKind::kFifoArrival;
        const auto report = run_program(options, pat.fn);
        if (std::string(pat.name) == "simple_deadlock") {
          EXPECT_TRUE(report.deadlocked)
              << pat.name << " " << mpism::match_spec(kind);
        }
        if (sched_kind == mpism::SchedulerKind::kCoop) {
          const std::string fp = fingerprint(report);
          if (!coop_fp.has_value()) {
            coop_fp = fp;
          } else {
            EXPECT_EQ(fp, *coop_fp)
                << pat.name << ": matchers disagree under coop";
          }
        }
      }
    }
  }
}

// match.scan_length is counted per MatchIndex and published once per run.
// The deep-queue wildcard program below (3 ranks each queue `queued`
// messages before a barrier, then rank 0 drains all 3*queued with
// wildcard receives) pins its shape: the indexed matcher examines one
// entry per query at any depth, while the linear oracle's p99 scan grows
// with the queue. Every query counts once: one match_posted per send, and
// a candidate scan plus a take per receive.
TEST(MatchScanHistogram, DeepQueueIndexedScansOneEntryPerQuery) {
  struct Case {
    MatchKind kind;
    int queued;
    double p99_bound;
  };
  for (const Case c : {Case{MatchKind::kIndexed, 128, 2.0},
                       Case{MatchKind::kIndexed, 1024, 2.0},
                       Case{MatchKind::kLinear, 128, 512.0},
                       Case{MatchKind::kLinear, 1024, 4096.0}}) {
    SCOPED_TRACE(strfmt("%s queued=%d", mpism::match_spec(c.kind), c.queued));
    obs::Registry::instance().reset();
    RunOptions options;
    options.nprocs = 4;
    options.match = c.kind;
    Runtime runtime(std::move(options));
    const int queued = c.queued;
    auto program = [queued](Proc& p) {
      if (p.rank() == 0) {
        p.barrier();
        for (int i = 0; i < 3 * queued; ++i) p.recv(kAnySource, 7);
      } else {
        for (int i = 0; i < queued; ++i) p.send(0, 7, pack<int>(i));
        p.barrier();
      }
    };
    const obs::FixedHistogram& hist =
        obs::Registry::instance().histogram("match.scan_length", 2.0, 24);
    ASSERT_TRUE(runtime.run(program).ok());
    const auto per_run = static_cast<std::uint64_t>(9 * queued);
    EXPECT_EQ(hist.count(), per_run);
    EXPECT_EQ(hist.quantile_bound(0.99), c.p99_bound);
    // A second run of the same Runtime starts from a reset index and
    // publishes the same histogram again.
    ASSERT_TRUE(runtime.run(program).ok());
    EXPECT_EQ(hist.count(), 2 * per_run);
    EXPECT_EQ(hist.quantile_bound(0.99), c.p99_bound);
  }
}

}  // namespace
}  // namespace dampi::test
