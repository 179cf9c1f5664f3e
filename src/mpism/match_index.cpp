#include "mpism/match_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cstddef>
#include <deque>
#include <ranges>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "obs/metrics.hpp"

namespace dampi::mpism {
namespace {

bool compatible(const RequestRecord& rec, const Envelope& env) {
  return rec.comm == env.comm &&
         (rec.posted_src_world == kAnySource ||
          rec.posted_src_world == env.src_world) &&
         (rec.posted_tag == kAnyTag || rec.posted_tag == env.tag);
}

bool env_matches(const Envelope& env, Rank src_world, Tag tag, CommId comm) {
  return env.comm == comm &&
         (src_world == kAnySource || env.src_world == src_world) &&
         (tag == kAnyTag || env.tag == tag);
}

// ---------------------------------------------------------------------------
// Linear queue walks: the original engine algorithms, shared between the
// LinearMatchIndex oracle (deques) and the indexed matcher's small-queue
// mode (a flat vector of pooled nodes, read through an envelope view), so
// the two stay identical by construction, not by parallel maintenance.
// Every walk records how many entries it examined.
// ---------------------------------------------------------------------------

template <typename Queue>
const Envelope* linear_find_specific(const Queue& q, ScanTally& scans,
                                     Rank src_world, Tag tag, CommId comm) {
  std::size_t examined = 0;
  for (const Envelope& env : q) {
    ++examined;
    if (env_matches(env, src_world, tag, comm)) {
      scans.add(examined);
      return &env;
    }
  }
  scans.add(examined);
  return nullptr;
}

template <typename Queue>
bool linear_has_candidates(const Queue& q, ScanTally& scans, Tag tag,
                           CommId comm) {
  std::size_t examined = 0;
  for (const Envelope& env : q) {
    ++examined;
    if (env_matches(env, kAnySource, tag, comm)) {
      scans.add(examined);
      return true;
    }
  }
  scans.add(examined);
  return false;
}

/// One candidate per source: the earliest (arrival order == per-source
/// send order) compatible message — MPI's non-overtaking rule restricts
/// a wildcard receive to exactly these heads. Sorted insertion keeps
/// the by-source ordering the policies rely on without rebuilding a
/// map per call.
template <typename Queue>
void linear_candidates(const Queue& q, ScanTally& scans, Tag tag, CommId comm,
                       std::vector<MatchCandidate>* out) {
  out->clear();
  for (const Envelope& env : q) {
    if (!env_matches(env, kAnySource, tag, comm)) continue;
    auto it = std::lower_bound(
        out->begin(), out->end(), env.src_world,
        [](const MatchCandidate& c, Rank s) { return c.src_world < s; });
    if (it != out->end() && it->src_world == env.src_world) continue;
    out->insert(it, MatchCandidate{env.src_world, env.tag, env.seq,
                                   env.msg_id, &env});
  }
  scans.add(q.size());
}

/// Position of `queued` in the queue (checked: it must be there).
template <typename Queue>
std::size_t linear_position(const Queue& q, ScanTally& scans,
                            const Envelope* queued) {
  std::size_t examined = 0;
  for (const Envelope& env : q) {
    ++examined;
    if (&env == queued) {
      scans.add(examined);
      return examined - 1;
    }
  }
  DAMPI_CHECK_MSG(false, "unexpected message vanished");
  return 0;
}

template <typename Queue>
RequestRecord* linear_match_posted(Queue& q, ScanTally& scans,
                                   const Envelope& env) {
  std::size_t examined = 0;
  for (auto it = q.begin(); it != q.end(); ++it) {
    ++examined;
    if (compatible(**it, env)) {
      scans.add(examined);
      RequestRecord* rec = *it;
      q.erase(it);
      return rec;
    }
  }
  scans.add(examined);
  return nullptr;
}

// ---------------------------------------------------------------------------
// LinearMatchIndex: the original deque walk, verbatim semantics.
// ---------------------------------------------------------------------------

class LinearMatchIndex final : public MatchIndex {
 public:
  void reset() override {
    unexpected_.clear();
    posted_.clear();
  }

  void push_unexpected(Envelope&& env) override {
    unexpected_.push_back(std::move(env));
  }

  const Envelope* find_specific(Rank src_world, Tag tag,
                                CommId comm) const override {
    return linear_find_specific(unexpected_, scans_, src_world, tag, comm);
  }

  bool has_candidates(Tag tag, CommId comm) const override {
    return linear_has_candidates(unexpected_, scans_, tag, comm);
  }

  void wildcard_candidates(Tag tag, CommId comm,
                           std::vector<MatchCandidate>* out) const override {
    linear_candidates(unexpected_, scans_, tag, comm, out);
  }

  Envelope take(const Envelope* queued) override {
    const auto at = static_cast<std::ptrdiff_t>(
        linear_position(unexpected_, scans_, queued));
    Envelope env = std::move(unexpected_[static_cast<std::size_t>(at)]);
    unexpected_.erase(unexpected_.begin() + at);
    return env;
  }

  void post_recv(RequestRecord* rec) override { posted_.push_back(rec); }

  RequestRecord* match_posted(const Envelope& env) override {
    return linear_match_posted(posted_, scans_, env);
  }

  PoolCounts pool_stats() const override { return {}; }

 private:
  std::deque<Envelope> unexpected_;   ///< unmatched arrivals, arrival order
  std::deque<RequestRecord*> posted_;  ///< pending receives, post order
};

// ---------------------------------------------------------------------------
// IndexedMatchIndex
// ---------------------------------------------------------------------------

/// Hash key for one matching table entry. `tag` may be kAnyTag (the
/// cross-tag per-source lanes, ANY-tag posted receives, and the
/// per-communicator source set); `src` may be kAnySource (wildcard posted
/// receives). `table` says which of the per-kind lanes or sets the key
/// names, so they share one table without colliding.
struct LaneKey {
  CommId comm;
  Tag tag;
  Rank src;
  std::int32_t table;
  bool operator==(const LaneKey&) const = default;
};

struct LaneKeyTraits {
  static constexpr LaneKey kFree{INT32_MIN, INT32_MIN, INT32_MIN, INT32_MIN};
  static std::uint64_t hash(const LaneKey& k) {
    const std::uint64_t a =
        (std::uint64_t{static_cast<std::uint32_t>(k.comm)} << 32) |
        static_cast<std::uint32_t>(k.tag);
    const std::uint64_t b =
        (std::uint64_t{static_cast<std::uint32_t>(k.src)} << 32) |
        static_cast<std::uint32_t>(k.table);
    std::uint64_t h = a * 0x9E3779B97F4A7C15ull ^ b * 0xC2B2AE3D27D4EB4Full;
    h ^= h >> 29;
    return h * 0x165667B19E3779F9ull;
  }
};

template <typename V>
using LaneTable = HashTable<LaneKey, V, LaneKeyTraits>;

/// How many queued entries the indexed matcher tolerates before it
/// builds lanes. Below this, the original linear walk is both faster
/// (no hashing) and simpler — shallow-queue workloads (ping-pong,
/// wavefront) never leave it, so they pay nothing for the index.
/// Crossing the threshold migrates the queue into the lanes once and is
/// permanent until the run ends (reset() returns to small-queue mode): a
/// queue that got deep once tends to get deep again.
constexpr std::size_t kSmallQueueThreshold = 32;

/// One queued message of the indexed matcher. Small-queue mode keeps
/// pointers to these in arrival order; lane mode threads each onto its
/// (comm, tag, src) lane and its (comm, src) cross-tag lane.
struct QueueNode {
  explicit QueueNode(Envelope&& e) : env(std::move(e)) {}
  Envelope env;
  QueueNode* tag_prev = nullptr;  ///< (comm, tag, src) lane links
  QueueNode* tag_next = nullptr;
  QueueNode* src_prev = nullptr;  ///< (comm, src) cross-tag lane links
  QueueNode* src_next = nullptr;
};

static_assert(std::is_standard_layout_v<QueueNode> &&
                  offsetof(QueueNode, env) == 0,
              "take() recovers a node from its envelope's address");

/// A small-mode queue as the envelopes the linear walks read.
auto envelopes(const std::vector<QueueNode*>& q) {
  return q | std::views::transform(
                 [](const QueueNode* n) -> const Envelope& { return n->env; });
}

class IndexedMatchIndex final : public MatchIndex {
 public:
  ~IndexedMatchIndex() override { reset(); }

  void reset() override {
    // Unmatched messages and posted receives (aborted or deadlocked
    // runs) still hold pooled nodes; destroy them properly so payloads
    // are freed and the pools' live counts return to zero.
    for (Node* n : small_) nodes_.release(n);
    small_.clear();
    small_posted_.clear();
    // In lane mode every queued node sits on exactly one tag lane.
    lanes_.for_each([this](const LaneKey& key, const Lane& lane) {
      if (key.table != kTag) return;
      for (Node* n = lane.head; n != nullptr;) {
        Node* next = n->tag_next;
        nodes_.release(n);
        n = next;
      }
    });
    lanes_.clear();
    posted_.for_each([this](const LaneKey&, const PostedLane& lane) {
      for (PostedNode* n = lane.head; n != nullptr;) {
        PostedNode* next = n->next;
        posted_nodes_.release(n);
        n = next;
      }
    });
    posted_.clear();
    posted_shapes_ = {};
    sources_.clear();
    src_words_.clear();
    free_blocks_.clear();
    blocks_ = 0;
    next_post_seq_ = 0;
    migrated_ = false;
    posted_migrated_ = false;
    nodes_.reset_counts();
    posted_nodes_.reset_counts();
  }

  void push_unexpected(Envelope&& env) override {
    Node* n = nodes_.acquire(std::move(env));
    if (!migrated_) {
      if (small_.size() < kSmallQueueThreshold) {
        small_.push_back(n);
        return;
      }
      // Crossing: index the backlog in queue order (which is msg_id
      // order, preserving every head-comparison invariant).
      for (Node* queued : small_) index_push(queued);
      small_.clear();
      migrated_ = true;
    }
    index_push(n);
  }

  const Envelope* find_specific(Rank src_world, Tag tag,
                                CommId comm) const override {
    if (!migrated_) {
      return linear_find_specific(envelopes(small_), scans_, src_world, tag, comm);
    }
    scans_.add(1);
    const Node* head =
        head_of({comm, tag, src_world, tag == kAnyTag ? kSrc : kTag});
    return head == nullptr ? nullptr : &head->env;
  }

  bool has_candidates(Tag tag, CommId comm) const override {
    if (!migrated_) {
      return linear_has_candidates(envelopes(small_), scans_, tag, comm);
    }
    scans_.add(1);
    return sources_.find({comm, tag, 0, kSources}) != nullptr;
  }

  void wildcard_candidates(Tag tag, CommId comm,
                           std::vector<MatchCandidate>* out) const override {
    if (!migrated_) {
      linear_candidates(envelopes(small_), scans_, tag, comm, out);
      return;
    }
    scans_.add(1);
    out->clear();
    const SrcSet* set = sources_.find({comm, tag, 0, kSources});
    if (set == nullptr) return;
    // Ascending bit order emits the candidates already sorted by source.
    const std::uint64_t* words = block_words(set->block);
    for (std::size_t w = 0; w < block_width_; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const auto src = static_cast<Rank>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        const Node* head =
            head_of({comm, tag, src, tag == kAnyTag ? kSrc : kTag});
        DAMPI_CHECK_MSG(head != nullptr, "stale source bit in match index");
        const Envelope& e = head->env;
        out->push_back(
            MatchCandidate{e.src_world, e.tag, e.seq, e.msg_id, &e});
      }
    }
  }

  Envelope take(const Envelope* queued) override {
    // Every queued envelope is the first member of its node.
    Node* n = reinterpret_cast<Node*>(const_cast<Envelope*>(queued));
    if (!migrated_) {
      const std::size_t at = linear_position(envelopes(small_), scans_, queued);
      small_.erase(small_.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      scans_.add(1);
      detach(n);
    }
    Envelope env = std::move(n->env);
    nodes_.release(n);
    return env;
  }

  void post_recv(RequestRecord* rec) override {
    if (!posted_migrated_) {
      if (small_posted_.size() < kSmallQueueThreshold) {
        small_posted_.push_back(rec);
        return;
      }
      // Migrate in post order: post_seq assignment preserves it.
      for (RequestRecord* r : small_posted_) index_post(r);
      small_posted_.clear();
      posted_migrated_ = true;
    }
    index_post(rec);
  }

  RequestRecord* match_posted(const Envelope& env) override {
    if (!posted_migrated_) {
      return linear_match_posted(small_posted_, scans_, env);
    }
    // Every compatible posted receive lives in exactly one of these four
    // lanes; each lane is FIFO in post order, so the overall
    // earliest-posted match is the min-post-seq lane head. A wildcard
    // shape with no lane anywhere is not looked up.
    scans_.add(1);
    const LaneKey keys[4] = {
        {env.comm, env.tag, env.src_world, kPosted},
        {env.comm, kAnyTag, env.src_world, kPosted},
        {env.comm, env.tag, kAnySource, kPosted},
        {env.comm, kAnyTag, kAnySource, kPosted},
    };
    const LaneKey* best_key = nullptr;
    PostedLane* best = nullptr;
    for (int shape = 0; shape < 4; ++shape) {
      if (shape != 0 && posted_shapes_[shape] == 0) continue;
      const LaneKey& key = keys[shape];
      PostedLane* lane = posted_.find(key);
      if (lane == nullptr) continue;
      if (best == nullptr || lane->head->seq < best->head->seq) {
        best = lane;
        best_key = &key;
      }
    }
    if (best == nullptr) return nullptr;
    PostedNode* head = best->head;
    RequestRecord* rec = head->rec;
    best->head = head->next;
    if (best->head == nullptr) {
      --posted_shapes_[best_key - keys];
      posted_.erase(*best_key);
    }
    posted_nodes_.release(head);
    return rec;
  }

  PoolCounts pool_stats() const override {
    PoolCounts s = nodes_.stats();
    const PoolCounts& p = posted_nodes_.stats();
    s.acquired += p.acquired;
    s.reused += p.reused;
    s.slabs += p.slabs;
    s.live += p.live;
    return s;
  }

 private:
  using Node = QueueNode;
  struct Lane {
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  /// One posted receive in a posted lane (FIFO, popped only at the head).
  struct PostedNode {
    std::uint64_t seq = 0;  ///< post order across all of this rank's lanes
    RequestRecord* rec = nullptr;
    PostedNode* next = nullptr;
  };
  struct PostedLane {
    PostedNode* head = nullptr;
    PostedNode* tail = nullptr;
  };
  /// The sources with a non-empty lane under one (comm, tag) or one
  /// comm: a bitmap block in src_words_ plus its population count.
  struct SrcSet {
    std::uint32_t block = 0;
    std::uint32_t count = 0;
  };

  /// LaneKey::table values.
  static constexpr std::int32_t kTag = 0;      ///< (comm, tag, src) FIFO
  static constexpr std::int32_t kSrc = 1;      ///< (comm, src) cross-tag FIFO
  static constexpr std::int32_t kPosted = 2;   ///< (comm, tag, src) receives
  static constexpr std::int32_t kSources = 3;  ///< (comm, tag) source set

  const Node* head_of(const LaneKey& key) const {
    const Lane* lane = lanes_.find(key);
    return lane == nullptr ? nullptr : lane->head;
  }

  static void append(Lane& lane, Node* n, Node* Node::* prev,
                     Node* Node::* next) {
    n->*prev = lane.tail;
    n->*next = nullptr;
    if (lane.tail != nullptr) {
      lane.tail->*next = n;
    } else {
      lane.head = n;
    }
    lane.tail = n;
  }

  static void unlink(Lane& lane, Node* n, Node* Node::* prev,
                     Node* Node::* next) {
    if (n->*prev != nullptr) {
      (n->*prev)->*next = n->*next;
    } else {
      lane.head = n->*next;
    }
    if (n->*next != nullptr) {
      (n->*next)->*prev = n->*prev;
    } else {
      lane.tail = n->*prev;
    }
  }

  void index_push(Node* n) {
    const Envelope& e = n->env;
    Lane& tl = lanes_[{e.comm, e.tag, e.src_world, kTag}];
    if (tl.head == nullptr) {
      add_source({e.comm, e.tag, 0, kSources}, e.src_world);
    }
    append(tl, n, &Node::tag_prev, &Node::tag_next);
    // The reference above may dangle once the table grows: look up again.
    Lane& sl = lanes_[{e.comm, kAnyTag, e.src_world, kSrc}];
    if (sl.head == nullptr) {
      add_source({e.comm, kAnyTag, 0, kSources}, e.src_world);
    }
    append(sl, n, &Node::src_prev, &Node::src_next);
  }

  /// Removes `n` from both of its lanes, erasing emptied lanes (so lane
  /// entries do not outlive their last message) and clearing emptied
  /// source bits.
  void detach(Node* n) {
    const Envelope& e = n->env;
    const LaneKey tkey{e.comm, e.tag, e.src_world, kTag};
    Lane* tl = lanes_.find(tkey);
    DAMPI_CHECK(tl != nullptr);
    unlink(*tl, n, &Node::tag_prev, &Node::tag_next);
    if (tl->head == nullptr) {
      lanes_.erase(tkey);
      remove_source({e.comm, e.tag, 0, kSources}, e.src_world);
    }
    const LaneKey skey{e.comm, kAnyTag, e.src_world, kSrc};
    Lane* sl = lanes_.find(skey);
    DAMPI_CHECK(sl != nullptr);
    unlink(*sl, n, &Node::src_prev, &Node::src_next);
    if (sl->head == nullptr) {
      lanes_.erase(skey);
      remove_source({e.comm, kAnyTag, 0, kSources}, e.src_world);
    }
  }

  static int posted_shape(Rank src, Tag tag) {
    return (src == kAnySource ? 2 : 0) + (tag == kAnyTag ? 1 : 0);
  }

  void index_post(RequestRecord* rec) {
    PostedNode* n = posted_nodes_.acquire();
    n->seq = next_post_seq_++;
    n->rec = rec;
    PostedLane& lane = posted_[{rec->comm, rec->posted_tag,
                                rec->posted_src_world, kPosted}];
    if (lane.tail != nullptr) {
      lane.tail->next = n;
    } else {
      lane.head = n;
      ++posted_shapes_[posted_shape(rec->posted_src_world, rec->posted_tag)];
    }
    lane.tail = n;
  }

  // --- source sets: fixed-width bitmap blocks in one flat array --------

  std::uint64_t* block_words(std::uint32_t block) {
    return src_words_.data() + block * block_width_;
  }
  const std::uint64_t* block_words(std::uint32_t block) const {
    return src_words_.data() + block * block_width_;
  }

  void add_source(const LaneKey& key, Rank src) {
    const auto word = static_cast<std::size_t>(src) / 64;
    if (word >= block_width_) widen(word + 1);
    SrcSet& set = sources_[key];
    if (set.count == 0) set.block = take_block();
    block_words(set.block)[word] |= std::uint64_t{1}
                                    << (static_cast<std::size_t>(src) % 64);
    ++set.count;
  }

  void remove_source(const LaneKey& key, Rank src) {
    SrcSet* set = sources_.find(key);
    DAMPI_CHECK(set != nullptr && set->count > 0);
    block_words(set->block)[static_cast<std::size_t>(src) / 64] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(src) % 64));
    if (--set->count == 0) {
      free_blocks_.push_back(set->block);  // all its bits are clear again
      sources_.erase(key);
    }
  }

  std::uint32_t take_block() {
    if (!free_blocks_.empty()) {
      const std::uint32_t block = free_blocks_.back();
      free_blocks_.pop_back();
      return block;
    }
    src_words_.resize(src_words_.size() + block_width_, 0);
    return blocks_++;
  }

  /// Re-lays every block at `width` words, keeping its bits. Only a
  /// source beyond every earlier one triggers this, so it stops once the
  /// width covers the world; the width outlives reset().
  void widen(std::size_t width) {
    std::vector<std::uint64_t> wider(blocks_ * width, 0);
    for (std::uint32_t b = 0; b < blocks_; ++b) {
      std::copy_n(block_words(b), block_width_, wider.data() + b * width);
    }
    src_words_ = std::move(wider);
    block_width_ = width;
  }

  // Small-queue mode: the linear algorithms until the queue first
  // crosses kSmallQueueThreshold, then lanes for the rest of the run (see
  // above). Erasing from a vector of at most 32 pointers shifts 8-byte
  // entries, and every container here keeps its capacity across runs.
  std::vector<Node*> small_;
  std::vector<RequestRecord*> small_posted_;
  bool migrated_ = false;
  bool posted_migrated_ = false;

  SlabPool<Node> nodes_{16};
  SlabPool<PostedNode> posted_nodes_{64};
  LaneTable<Lane> lanes_;          ///< the two message lane kinds
  LaneTable<PostedLane> posted_;   ///< posted receives by (comm, tag, src)
  /// Non-empty posted lanes per shape, indexed like match_posted's keys:
  /// (src, tag), (src, ANY), (ANY, tag), (ANY, ANY).
  std::array<std::size_t, 4> posted_shapes_{};
  LaneTable<SrcSet> sources_;      ///< sources by (comm, tag|ANY)
  std::vector<std::uint64_t> src_words_;  ///< blocks_ × block_width_ words
  std::vector<std::uint32_t> free_blocks_;
  std::uint32_t blocks_ = 0;
  std::size_t block_width_ = 1;
  std::uint64_t next_post_seq_ = 0;
};

}  // namespace

void ScanTally::add(std::size_t examined) {
  const auto width = std::bit_width(examined < 1 ? std::size_t{1} : examined);
  buckets[static_cast<std::size_t>(std::min(width, std::size_t{kBuckets})) -
          1]++;
}

void MatchIndex::publish_scans() {
  // first_limit=2.0 puts the length-1 samples alone in the first bucket:
  // `quantile_bound(q) <= 2.0` ⇔ every length == 1. Indexed lookups
  // always record 1 (hash probes, no scan); the linear walks record
  // their length, so this histogram is the direct evidence that the
  // index collapsed the scans.
  static obs::FixedHistogram& hist =
      obs::Registry::instance().histogram("match.scan_length", 2.0,
                                          ScanTally::kBuckets);
  double lower = 1.0;
  for (std::uint64_t& n : scans_.buckets) {
    if (n != 0) hist.add(lower, n);
    n = 0;
    lower *= 2.0;
  }
}

const char* match_spec(MatchKind kind) {
  return kind == MatchKind::kLinear ? "linear" : "indexed";
}

std::unique_ptr<MatchIndex> make_match_index(MatchKind kind) {
  if (kind == MatchKind::kLinear) {
    return std::make_unique<LinearMatchIndex>();
  }
  return std::make_unique<IndexedMatchIndex>();
}

}  // namespace dampi::mpism
