#include "core/shard.hpp"

#include <algorithm>
#include <utility>

#include "common/strutil.hpp"

namespace dampi::core {

namespace {

/// Shard skeleton covering root frames 0..max_pos: every frame becomes a
/// coordinator-owned (escape_alts) site with an empty untried list; the
/// split then re-adds exactly the alternatives this shard is assigned.
Checkpoint shard_skeleton(const Checkpoint& root, std::size_t max_pos) {
  Checkpoint shard;
  shard.fingerprint = root.fingerprint;
  shard.fault_fires = root.fault_fires;
  shard.frames.assign(root.frames.begin(),
                      root.frames.begin() +
                          static_cast<std::ptrdiff_t>(max_pos) + 1);
  for (DfsFrame& frame : shard.frames) {
    frame.untried.clear();
    frame.escape_alts = true;
  }
  return shard;
}

}  // namespace

std::vector<Checkpoint> split_frontier(const Checkpoint& root,
                                       std::size_t max_shards, PorMode por) {
  // One unit of work per untried alternative, shallow frames first —
  // round-robin over that order spreads the biggest subtrees across
  // shards instead of stacking them into one.
  std::vector<std::pair<std::size_t, mpism::Rank>> units;
  for (std::size_t pos = 0; pos < root.frames.size(); ++pos) {
    for (const mpism::Rank src : root.frames[pos].untried) {
      units.emplace_back(pos, src);
    }
  }
  if (units.empty()) return {};

  const std::size_t nshards =
      max_shards == 0 ? units.size() : std::min(max_shards, units.size());
  // Gather each shard's units, then build it once over its deepest frame.
  std::vector<std::vector<std::pair<std::size_t, mpism::Rank>>> assigned(
      nshards);
  for (std::size_t i = 0; i < units.size(); ++i) {
    assigned[i % nshards].push_back(units[i]);
  }

  std::vector<Checkpoint> shards;
  shards.reserve(nshards);
  for (const auto& mine : assigned) {
    std::size_t max_pos = 0;
    for (const auto& [pos, src] : mine) max_pos = std::max(max_pos, pos);
    // Sleep-set pruning needs the whole frontier's seen sets in every
    // shard (see the declaration); off mode keeps the minimal prefix.
    if (por == PorMode::kSleep) max_pos = root.frames.size() - 1;
    Checkpoint shard = shard_skeleton(root, max_pos);
    for (const auto& [pos, src] : mine) {
      shard.frames[pos].untried.push_back(src);
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

std::string site_id(const std::vector<DfsFrame>& frames, std::size_t pos) {
  std::string id;
  for (std::size_t j = 0; j < pos; ++j) {
    id += strfmt("%d:%llu=%d|", frames[j].key.rank,
                 static_cast<unsigned long long>(frames[j].key.nd_index),
                 frames[j].taken_src);
  }
  id += strfmt("@%d:%llu", frames[pos].key.rank,
               static_cast<unsigned long long>(frames[pos].key.nd_index));
  return id;
}

std::string canonical_site_id(const std::vector<DfsFrame>& frames,
                              std::size_t pos, PorMode por) {
  if (por != PorMode::kSleep) return site_id(frames, pos);
  const DecisionFootprint site = frame_footprint(frames[pos]);
  std::string id;
  for (std::size_t j = 0; j < pos; ++j) {
    // A commuting prefix decision does not change what the site's
    // subtree can do — two prefixes differing only there denote the
    // same site. Under Lamport clocks independent() is always false,
    // so the canonical id degenerates to site_id and the off-mode
    // dedup behaviour is preserved bit for bit.
    if (independent(frame_footprint(frames[j]), site)) continue;
    id += strfmt("%d:%llu=%d|", frames[j].key.rank,
                 static_cast<unsigned long long>(frames[j].key.nd_index),
                 frames[j].taken_src);
  }
  id += strfmt("@%d:%llu", frames[pos].key.rank,
               static_cast<unsigned long long>(frames[pos].key.nd_index));
  return id;
}

Checkpoint make_escape_shard(const EscapedAlt& escape,
                             const std::string& fingerprint) {
  Checkpoint shard;
  shard.fingerprint = fingerprint;
  shard.frames = escape.frames;
  for (DfsFrame& frame : shard.frames) {
    frame.untried.clear();
    frame.escape_alts = true;
  }
  shard.frames.back().untried.push_back(escape.src);
  shard.frames.back().seen.insert(escape.src);
  return shard;
}

std::string bug_key(const BugRecord& bug) {
  std::string key = strfmt("k%d", static_cast<int>(bug.kind));
  for (const auto& [epoch, src] : bug.schedule.forced) {
    key += strfmt("|%d:%llu=%d", epoch.rank,
                  static_cast<unsigned long long>(epoch.nd_index), src);
  }
  return key;
}

CampaignMerge::CampaignMerge(ExploreResult discovery, PorMode por)
    : por_(por), merged_(std::move(discovery)) {
  for (const BugRecord& bug : merged_.bugs) bug_keys_.insert(bug_key(bug));
  for (const std::string& alert : merged_.unsafe_alerts) {
    alert_keys_.insert(alert);
  }
  // The frontier travels to split_frontier separately; the merged report
  // must not carry a stale copy of it.
  merged_.frontier.clear();
}

void CampaignMerge::register_shard_sites(const Checkpoint& shard) {
  for (std::size_t pos = 0; pos < shard.frames.size(); ++pos) {
    const DfsFrame& frame = shard.frames[pos];
    if (!frame.escape_alts) continue;
    std::set<mpism::Rank>& seen =
        site_seen_[canonical_site_id(shard.frames, pos, por_)];
    seen.insert(frame.seen.begin(), frame.seen.end());
    seen.insert(frame.untried.begin(), frame.untried.end());
  }
}

bool CampaignMerge::escape_is_new(const EscapedAlt& escape) {
  if (escape.frames.empty()) return false;
  return site_seen_[canonical_site_id(escape.frames,
                                      escape.frames.size() - 1, por_)]
      .insert(escape.src)
      .second;
}

void CampaignMerge::add(const ExploreResult& shard) {
  merged_.interleavings += shard.interleavings;
  merged_.por_pruned += shard.por_pruned;
  merged_.por_dependent_pairs += shard.por_dependent_pairs;
  merged_.por_sleep_hits += shard.por_sleep_hits;
  merged_.total_vtime_us += shard.total_vtime_us;
  merged_.divergences += shard.divergences;
  merged_.prefix_mismatches += shard.prefix_mismatches;
  merged_.retries += shard.retries;
  merged_.timeouts += shard.timeouts;
  merged_.quarantined += shard.quarantined;
  merged_.checkpoint_writes += shard.checkpoint_writes;
  merged_.interleaving_budget_exhausted |= shard.interleaving_budget_exhausted;
  merged_.time_budget_exhausted |= shard.time_budget_exhausted;
  merged_.interrupted |= shard.interrupted;
  for (const BugRecord& bug : shard.bugs) {
    if (bug_keys_.insert(bug_key(bug)).second) merged_.bugs.push_back(bug);
  }
  for (const std::string& alert : shard.unsafe_alerts) {
    if (alert_keys_.insert(alert).second) {
      merged_.unsafe_alerts.push_back(alert);
    }
  }
}

void CampaignMerge::quarantine_shard() { ++merged_.quarantined; }

ExploreResult CampaignMerge::finish() {
  std::sort(merged_.bugs.begin(), merged_.bugs.end(),
            [](const BugRecord& a, const BugRecord& b) {
              return bug_key(a) < bug_key(b);
            });
  return std::move(merged_);
}

}  // namespace dampi::core
