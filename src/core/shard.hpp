// Frontier sharding and campaign-level result merging — the core half
// of the distributed explorer (src/dist/ holds the process plumbing).
//
// A *shard* is an ordinary resume checkpoint whose prefix frames are
// flagged escape_alts: the worker that resumes it explores exactly the
// untried alternatives the shard carries (plus everything below them),
// and *escapes* any newly revealed alternative of a prefix frame back
// to the coordinator instead of exploring it. The coordinator dedups
// escapes against a per-site global seen set and spawns new shards for
// the genuinely new ones. Together these give the exactly-once shard
// accounting invariant (DESIGN.md §4.12): the union of interleavings
// explored across all shards equals the single-process walk's set,
// each explored exactly once, modulo order.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/explorer.hpp"

namespace dampi::core {

/// Split a frontier (the frame stack a discovery_only explore exported,
/// packaged as a Checkpoint) into independently explorable shards, one
/// unit of work per untried alternative. With `max_shards` > 0 the
/// alternatives are grouped round-robin into at most that many shards
/// (each still a valid DFS stack — untried lists at several positions
/// are consumed deepest-first). Counters are zeroed: a shard's result
/// accounts only the runs the shard itself performed. Returns an empty
/// vector when the frontier has no untried alternatives.
///
/// Under POR sleep every shard's skeleton spans the FULL frontier, not
/// just its deepest assigned frame: the suffix frames carry no untried
/// work (their alternatives belong to other shards) but their seen sets
/// travel with the shard, so the worker's harvest-at-truncation can put
/// sibling-covered sources to sleep exactly as the single-process walk
/// would. Replayed schedules are unchanged — schedule_for() only forces
/// decisions above the flip, and the suffix is truncated (harvested) at
/// the first flip before any run.
std::vector<Checkpoint> split_frontier(const Checkpoint& root,
                                       std::size_t max_shards = 0,
                                       PorMode por = PorMode::kOff);

/// Identity of a decision site: the forced decisions of frames
/// 0..pos-1 plus frame pos's epoch key. Two shards that carry the same
/// prefix denote the same site, whichever worker runs them.
std::string site_id(const std::vector<DfsFrame>& frames, std::size_t pos);

/// Site identity modulo commuting prefix decisions. Under POR sleep a
/// worker can reveal an alternative for a prefix site while a commuting
/// decision above it sits flipped; the raw site_id then differs from the
/// id the site was registered under and the coordinator would resurrect
/// a schedule the sequential sleep walk prunes. Canonicalization drops
/// every prefix decision the independence relation proves commutes with
/// the site's own decision (por.hpp; conservative fallbacks keep the
/// decision in the id, which at worst costs an extra shard, never
/// coverage). With por == kOff this is exactly site_id().
std::string canonical_site_id(const std::vector<DfsFrame>& frames,
                              std::size_t pos, PorMode por);

/// Shard exploring exactly one escaped alternative: the escape's frame
/// prefix copied (every frame escape_alts, untried cleared) with the
/// escaped source as the deepest frame's only untried alternative.
Checkpoint make_escape_shard(const EscapedAlt& escape,
                             const std::string& fingerprint);

/// Canonical identity of a bug for cross-shard dedup: the kind plus the
/// reproducer schedule (which pins the whole run, so equal keys mean
/// the same interleaving failed the same way).
std::string bug_key(const BugRecord& bug);

/// Accumulates the discovery run plus every shard result into one
/// campaign-level ExploreResult with deduplicated bugs and alerts, and
/// owns the per-site seen sets that make escape processing exactly-once.
class CampaignMerge {
 public:
  /// Seeds the accumulator from the discovery (or resume-restore)
  /// result: first-run stats, initial bugs/alerts, journalled counters.
  /// `por` must match the campaign's ExplorerOptions::por — it selects
  /// the site-id canonicalization used by the escape dedup.
  explicit CampaignMerge(ExploreResult discovery,
                         PorMode por = PorMode::kOff);

  /// Register every escape_alts prefix site of a shard about to be
  /// queued (idempotent; unions the frames' seen sets in).
  void register_shard_sites(const Checkpoint& shard);

  /// True — and the site's seen set is extended — iff this escaped
  /// alternative has never been queued, taken, or escaped before.
  bool escape_is_new(const EscapedAlt& escape);

  /// Fold one shard walk's results in (bug/alert dedup, counter sums,
  /// partial-coverage flags OR'd). Escapes never reach here: the walk's
  /// on_escape hook routes them through escape_is_new/make_escape_shard.
  void add(const ExploreResult& shard);

  /// Record a shard dropped after repeated worker deaths.
  void quarantine_shard();

  std::uint64_t interleavings() const { return merged_.interleavings; }

  /// Final merged result; bugs sorted canonically (by bug_key) so the
  /// campaign report is deterministic regardless of arrival order.
  ExploreResult finish();

 private:
  PorMode por_ = PorMode::kOff;
  ExploreResult merged_;
  std::unordered_set<std::string> bug_keys_;
  std::unordered_set<std::string> alert_keys_;
  std::map<std::string, std::set<mpism::Rank>> site_seen_;
};

}  // namespace dampi::core
