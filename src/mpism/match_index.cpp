#include "mpism/match_index.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
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

/// Queue entries examined per matcher query. Indexed lookups always
/// record 1 (hash probes, no scan); the linear matcher records its walk
/// length, so this histogram is the direct evidence that the index
/// collapsed the scans. first_limit=2.0 puts the length-1 samples alone
/// in the first bucket: `quantile_bound(q) <= 2.0` ⇔ every length == 1.
obs::FixedHistogram& scan_hist() {
  static obs::FixedHistogram& h =
      obs::Registry::instance().histogram("match.scan_length", 2.0, 24);
  return h;
}

void record_scan(std::size_t examined) {
  scan_hist().add(static_cast<double>(examined < 1 ? 1 : examined));
}

// ---------------------------------------------------------------------------
// Linear deque walks: the original engine algorithms, shared between the
// LinearMatchIndex oracle and the indexed matcher's small-queue mode (so
// the two stay identical by construction, not by parallel maintenance).
// ---------------------------------------------------------------------------

const Envelope* linear_find_specific(const std::deque<Envelope>& q,
                                     Rank src_world, Tag tag, CommId comm) {
  std::size_t examined = 0;
  for (const Envelope& env : q) {
    ++examined;
    if (env_matches(env, src_world, tag, comm)) {
      record_scan(examined);
      return &env;
    }
  }
  record_scan(examined);
  return nullptr;
}

const Envelope* linear_find_by_id(const std::deque<Envelope>& q,
                                  std::uint64_t msg_id) {
  std::size_t examined = 0;
  for (const Envelope& env : q) {
    ++examined;
    if (env.msg_id == msg_id) {
      record_scan(examined);
      return &env;
    }
  }
  record_scan(examined);
  return nullptr;
}

bool linear_has_candidates(const std::deque<Envelope>& q, Tag tag,
                           CommId comm) {
  std::size_t examined = 0;
  for (const Envelope& env : q) {
    ++examined;
    if (env.tool_internal) continue;
    if (env_matches(env, kAnySource, tag, comm)) {
      record_scan(examined);
      return true;
    }
  }
  record_scan(examined);
  return false;
}

/// One candidate per source: the earliest (arrival order == per-source
/// send order) compatible message — MPI's non-overtaking rule restricts
/// a wildcard receive to exactly these heads. Sorted insertion keeps
/// the by-source ordering the policies rely on without rebuilding a
/// map per call.
void linear_candidates(const std::deque<Envelope>& q, Tag tag, CommId comm,
                       std::vector<MatchCandidate>* out) {
  out->clear();
  for (const Envelope& env : q) {
    if (!env_matches(env, kAnySource, tag, comm)) continue;
    if (env.tool_internal) continue;
    auto it = std::lower_bound(
        out->begin(), out->end(), env.src_world,
        [](const MatchCandidate& c, Rank s) { return c.src_world < s; });
    if (it != out->end() && it->src_world == env.src_world) continue;
    out->insert(it,
                MatchCandidate{env.src_world, env.tag, env.seq, env.msg_id});
  }
  record_scan(q.size());
}

Envelope linear_take(std::deque<Envelope>& q, std::uint64_t msg_id) {
  std::size_t examined = 0;
  for (auto it = q.begin(); it != q.end(); ++it) {
    ++examined;
    if (it->msg_id == msg_id) {
      record_scan(examined);
      Envelope env = std::move(*it);
      q.erase(it);
      return env;
    }
  }
  DAMPI_CHECK_MSG(false, "unexpected message vanished");
  return {};
}

RequestRecord* linear_match_posted(std::deque<RequestRecord*>& q,
                                   const Envelope& env) {
  std::size_t examined = 0;
  for (auto it = q.begin(); it != q.end(); ++it) {
    ++examined;
    if (compatible(**it, env)) {
      record_scan(examined);
      RequestRecord* rec = *it;
      q.erase(it);
      return rec;
    }
  }
  record_scan(examined);
  return nullptr;
}

// ---------------------------------------------------------------------------
// LinearMatchIndex: the original deque walk, verbatim semantics.
// ---------------------------------------------------------------------------

class LinearMatchIndex final : public MatchIndex {
 public:
  void push_unexpected(Envelope&& env) override {
    unexpected_.push_back(std::move(env));
  }

  const Envelope* find_specific(Rank src_world, Tag tag,
                                CommId comm) const override {
    return linear_find_specific(unexpected_, src_world, tag, comm);
  }

  const Envelope* find_by_id(std::uint64_t msg_id) const override {
    return linear_find_by_id(unexpected_, msg_id);
  }

  bool has_candidates(Tag tag, CommId comm) const override {
    return linear_has_candidates(unexpected_, tag, comm);
  }

  void wildcard_candidates(Tag tag, CommId comm,
                           std::vector<MatchCandidate>* out) const override {
    linear_candidates(unexpected_, tag, comm, out);
  }

  Envelope take(std::uint64_t msg_id) override {
    return linear_take(unexpected_, msg_id);
  }

  void post_recv(RequestRecord* rec) override { posted_.push_back(rec); }

  RequestRecord* match_posted(const Envelope& env) override {
    return linear_match_posted(posted_, env);
  }

  PoolStats pool_stats() const override { return {}; }

 private:
  std::deque<Envelope> unexpected_;   ///< unmatched arrivals, arrival order
  std::deque<RequestRecord*> posted_;  ///< pending receives, post order
};

// ---------------------------------------------------------------------------
// IndexedMatchIndex
// ---------------------------------------------------------------------------

/// Hash key for one matching lane. `tag` may be kAnyTag (the cross-tag
/// per-source lane, and ANY-tag posted receives); `src` may be
/// kAnySource (wildcard posted receives) or -1 as "unused" in the
/// per-(comm,tag) source-set key.
struct LaneKey {
  CommId comm;
  Tag tag;
  Rank src;
  bool operator==(const LaneKey&) const = default;
};

struct LaneKeyHash {
  std::size_t operator()(const LaneKey& k) const {
    std::uint64_t h = static_cast<std::uint32_t>(k.comm);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint32_t>(k.tag + 1);
    h = h * 0xC2B2AE3D27D4EB4Full + static_cast<std::uint32_t>(k.src + 1);
    h ^= h >> 29;
    return static_cast<std::size_t>(h * 0x165667B19E3779F9ull >> 32);
  }
};

/// Which source ranks currently have a non-empty lane; iterated in
/// ascending rank order to emit candidates already sorted by source.
class SrcBitmap {
 public:
  void set(Rank s) {
    const auto w = static_cast<std::size_t>(s) / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    words_[w] |= std::uint64_t{1} << (static_cast<std::size_t>(s) % 64);
  }
  void clear(Rank s) {
    const auto w = static_cast<std::size_t>(s) / 64;
    if (w < words_.size()) {
      words_[w] &= ~(std::uint64_t{1} << (static_cast<std::size_t>(s) % 64));
    }
  }
  bool any() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::uint64_t w = words_[i];
      while (w != 0) {
        const int b = std::countr_zero(w);
        f(static_cast<Rank>(i * 64 + static_cast<std::size_t>(b)));
        w &= w - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// How many queued entries the indexed matcher tolerates before it
/// builds lanes. Below this, the original deque walk is both faster
/// (no hashing, no per-message map-node traffic) and allocation-free —
/// shallow-queue workloads (ping-pong, wavefront) never leave it, so
/// they pay nothing for the index. Crossing the threshold migrates the
/// queue into the lanes once and is permanent for this index's lifetime
/// (one engine run): a queue that got deep once tends to get deep again.
constexpr std::size_t kSmallQueueThreshold = 32;

class IndexedMatchIndex final : public MatchIndex {
 public:
  ~IndexedMatchIndex() override {
    if (lanes_ == nullptr) return;
    // Unmatched messages at teardown (aborted/deadlocked runs) still own
    // pooled nodes; destroy them properly so payloads are freed.
    for (auto& [id, node] : lanes_->by_id) lanes_->nodes.release(node);
  }

  void push_unexpected(Envelope&& env) override {
    if (!migrated_) {
      if (small_.size() < kSmallQueueThreshold) {
        small_.push_back(std::move(env));
        return;
      }
      // Crossing: move the backlog into the lanes in queue order (which
      // is msg_id order, preserving every head-comparison invariant).
      ensure_lanes();
      for (Envelope& e : small_) lanes_->index_push(std::move(e));
      small_.clear();
      migrated_ = true;
    }
    lanes_->index_push(std::move(env));
  }

  const Envelope* find_specific(Rank src_world, Tag tag,
                                CommId comm) const override {
    if (!migrated_) {
      return linear_find_specific(small_, src_world, tag, comm);
    }
    // Tool traffic is visible to specific receives, so the winner is the
    // queue-order-earliest of the user and tool lane heads. Queue order
    // == msg_id order (ids are assigned in the same critical section as
    // the insertion), so comparing head ids is exact.
    record_scan(1);
    const Node* a = nullptr;
    const Node* b = nullptr;
    if (tag == kAnyTag) {
      a = head_of(lanes_->user_src, {comm, kAnyTag, src_world});
      b = head_of(lanes_->tool_src, {comm, kAnyTag, src_world});
    } else {
      a = head_of(lanes_->user_tag, {comm, tag, src_world});
      b = head_of(lanes_->tool_tag, {comm, tag, src_world});
    }
    const Node* best = a;
    if (b != nullptr && (best == nullptr || b->env.msg_id < best->env.msg_id)) {
      best = b;
    }
    return best == nullptr ? nullptr : &best->env;
  }

  const Envelope* find_by_id(std::uint64_t msg_id) const override {
    if (!migrated_) return linear_find_by_id(small_, msg_id);
    record_scan(1);
    auto it = lanes_->by_id.find(msg_id);
    return it == lanes_->by_id.end() ? nullptr : &it->second->env;
  }

  bool has_candidates(Tag tag, CommId comm) const override {
    if (!migrated_) return linear_has_candidates(small_, tag, comm);
    record_scan(1);
    const SrcBitmap* bm = lanes_->sources_for(tag, comm);
    return bm != nullptr && bm->any();
  }

  void wildcard_candidates(Tag tag, CommId comm,
                           std::vector<MatchCandidate>* out) const override {
    if (!migrated_) {
      linear_candidates(small_, tag, comm, out);
      return;
    }
    record_scan(1);
    out->clear();
    const SrcBitmap* bm = lanes_->sources_for(tag, comm);
    if (bm == nullptr) return;
    bm->for_each([&](Rank src) {
      const Node* head = tag == kAnyTag
                             ? head_of(lanes_->user_src, {comm, kAnyTag, src})
                             : head_of(lanes_->user_tag, {comm, tag, src});
      DAMPI_CHECK_MSG(head != nullptr, "stale source bit in match index");
      const Envelope& e = head->env;
      out->push_back(MatchCandidate{e.src_world, e.tag, e.seq, e.msg_id});
    });
  }

  Envelope take(std::uint64_t msg_id) override {
    if (!migrated_) return linear_take(small_, msg_id);
    record_scan(1);
    auto it = lanes_->by_id.find(msg_id);
    DAMPI_CHECK_MSG(it != lanes_->by_id.end(), "unexpected message vanished");
    Node* n = it->second;
    lanes_->by_id.erase(it);
    lanes_->detach(n);
    Envelope env = std::move(n->env);
    lanes_->nodes.release(n);
    return env;
  }

  void post_recv(RequestRecord* rec) override {
    if (!posted_migrated_) {
      if (small_posted_.size() < kSmallQueueThreshold) {
        small_posted_.push_back(rec);
        return;
      }
      // Migrate in deque order: post_seq assignment preserves post order.
      ensure_lanes();
      for (RequestRecord* r : small_posted_) lanes_->index_post(r);
      small_posted_.clear();
      posted_migrated_ = true;
    }
    lanes_->index_post(rec);
  }

  RequestRecord* match_posted(const Envelope& env) override {
    if (!posted_migrated_) return linear_match_posted(small_posted_, env);
    // Every compatible posted receive lives in exactly one of these four
    // lanes; each lane is FIFO in post order, so the overall
    // earliest-posted match is the min-post-seq lane head.
    record_scan(1);
    const LaneKey keys[4] = {
        {env.comm, env.tag, env.src_world},
        {env.comm, kAnyTag, env.src_world},
        {env.comm, env.tag, kAnySource},
        {env.comm, kAnyTag, kAnySource},
    };
    PostedMap& posted = lanes_->posted;
    PostedMap::iterator best = posted.end();
    for (const LaneKey& key : keys) {
      auto it = posted.find(key);
      if (it == posted.end()) continue;
      DAMPI_CHECK(!it->second.empty());
      if (best == posted.end() ||
          it->second.front().first < best->second.front().first) {
        best = it;
      }
    }
    if (best == posted.end()) return nullptr;
    RequestRecord* rec = best->second.front().second;
    best->second.pop_front();
    if (best->second.empty()) posted.erase(best);
    return rec;
  }

  PoolStats pool_stats() const override {
    return lanes_ == nullptr ? PoolStats{} : lanes_->nodes.stats();
  }

 private:
  struct Node {
    explicit Node(Envelope&& e) : env(std::move(e)) {}
    Envelope env;
    Node* tag_prev = nullptr;  ///< (comm, tag, src) lane links
    Node* tag_next = nullptr;
    Node* src_prev = nullptr;  ///< (comm, src) cross-tag lane links
    Node* src_next = nullptr;
  };
  struct Lane {
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  using LaneMap = std::unordered_map<LaneKey, Lane, LaneKeyHash>;
  using PostedLane = std::deque<std::pair<std::uint64_t, RequestRecord*>>;
  using PostedMap = std::unordered_map<LaneKey, PostedLane, LaneKeyHash>;

  /// Sentinel `src` for the per-(comm,tag) source-set keys.
  static constexpr Rank kUnusedSrc = -2;

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

  static const Node* head_of(const LaneMap& map, const LaneKey& key) {
    auto it = map.find(key);
    return it == map.end() ? nullptr : it->second.head;
  }

  /// Everything the migrated mode needs, allocated only when a queue
  /// first crosses the threshold: an unmigrated index per rank must cost
  /// exactly what the linear matcher costs (shallow-queue workloads
  /// construct and destroy one of these per rank per run).
  struct Lanes {
    SlabPool<Node> nodes;
    LaneMap user_tag;  ///< (comm, tag, src) -> FIFO of user messages
    LaneMap tool_tag;  ///< same, tool traffic (find_specific only)
    LaneMap user_src;  ///< (comm, src) -> cross-tag FIFO of user messages
    LaneMap tool_src;
    std::unordered_map<LaneKey, SrcBitmap, LaneKeyHash> user_tag_sources;
    std::unordered_map<CommId, SrcBitmap> user_comm_sources;
    std::unordered_map<std::uint64_t, Node*> by_id;
    PostedMap posted;
    std::uint64_t next_post_seq = 0;

    void index_push(Envelope&& env) {
      Node* n = nodes.acquire(std::move(env));
      const Envelope& e = n->env;
      by_id.emplace(e.msg_id, n);
      const bool tool = e.tool_internal;

      Lane& tl = (tool ? tool_tag : user_tag)[{e.comm, e.tag, e.src_world}];
      if (tl.head == nullptr && !tool) {
        user_tag_sources[{e.comm, e.tag, kUnusedSrc}].set(e.src_world);
      }
      append(tl, n, &Node::tag_prev, &Node::tag_next);

      Lane& sl = (tool ? tool_src : user_src)[{e.comm, kAnyTag, e.src_world}];
      if (sl.head == nullptr && !tool) {
        user_comm_sources[e.comm].set(e.src_world);
      }
      append(sl, n, &Node::src_prev, &Node::src_next);
    }

    void index_post(RequestRecord* rec) {
      posted[{rec->comm, rec->posted_tag, rec->posted_src_world}].emplace_back(
          next_post_seq++, rec);
    }

    const SrcBitmap* sources_for(Tag tag, CommId comm) const {
      if (tag == kAnyTag) {
        auto it = user_comm_sources.find(comm);
        return it == user_comm_sources.end() ? nullptr : &it->second;
      }
      auto it = user_tag_sources.find({comm, tag, kUnusedSrc});
      return it == user_tag_sources.end() ? nullptr : &it->second;
    }

    /// Removes `n` from both of its lanes, erasing emptied lanes (tool
    /// piggyback tags are unique per message, so lane entries must not
    /// outlive their last message) and clearing emptied source bits.
    void detach(Node* n) {
      const Envelope& e = n->env;
      const bool tool = e.tool_internal;

      LaneMap& tmap = tool ? tool_tag : user_tag;
      auto tit = tmap.find({e.comm, e.tag, e.src_world});
      DAMPI_CHECK(tit != tmap.end());
      unlink(tit->second, n, &Node::tag_prev, &Node::tag_next);
      if (tit->second.head == nullptr) {
        tmap.erase(tit);
        if (!tool) {
          auto bit = user_tag_sources.find({e.comm, e.tag, kUnusedSrc});
          DAMPI_CHECK(bit != user_tag_sources.end());
          bit->second.clear(e.src_world);
          if (!bit->second.any()) user_tag_sources.erase(bit);
        }
      }

      LaneMap& smap = tool ? tool_src : user_src;
      auto sit = smap.find({e.comm, kAnyTag, e.src_world});
      DAMPI_CHECK(sit != smap.end());
      unlink(sit->second, n, &Node::src_prev, &Node::src_next);
      if (sit->second.head == nullptr) {
        smap.erase(sit);
        if (!tool) {
          auto bit = user_comm_sources.find(e.comm);
          DAMPI_CHECK(bit != user_comm_sources.end());
          bit->second.clear(e.src_world);
          if (!bit->second.any()) user_comm_sources.erase(bit);
        }
      }
    }
  };

  void ensure_lanes() {
    if (lanes_ == nullptr) lanes_ = std::make_unique<Lanes>();
  }

  // Small-queue mode: the original deque algorithms until the queue
  // first crosses kSmallQueueThreshold, then lanes forever (see above).
  std::deque<Envelope> small_;
  std::deque<RequestRecord*> small_posted_;
  bool migrated_ = false;
  bool posted_migrated_ = false;
  std::unique_ptr<Lanes> lanes_;  ///< null until the first migration
};

}  // namespace

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
