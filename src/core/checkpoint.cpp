#include "core/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strutil.hpp"
#include "core/decision_io.hpp"

namespace dampi::core {

namespace {

/// FNV-1a over the pinned initial schedule so the fingerprint stays one
/// line regardless of how many decisions were pinned.
std::uint64_t hash_schedule(const Schedule& schedule) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [key, src] : schedule.forced) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(key.rank), key.nd_index,
          static_cast<std::uint64_t>(src)}) {
      h ^= v;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// One-line-safe text encoding shared with the dist wire protocol.
using dampi::escape_line;
using dampi::unescape_line;

/// The remainder of `line` after the leading keyword and one space.
std::string rest_of_line(const std::string& line, std::size_t keyword_len) {
  if (line.size() <= keyword_len + 1) return "";
  return line.substr(keyword_len + 1);
}

/// One frame line under `keyword` ("frame" for the live stack, "pframe"
/// for harvested pending-sleep frames). The fixed prefix is followed by
/// optional single-letter trailers, written only when non-default so
/// pre-POR journals and POR-off journals keep their exact shape:
///   e 1                 coordinator-owned decision site
///   z N r0..rN-1        sleep set
///   f comm tag          decision footprint channel
///   v N c0..cN-1        vector timestamp at epoch open
std::string serialize_frame(const DfsFrame& frame, const char* keyword) {
  std::string out =
      strfmt("%s %d %llu %llu %d %d %d u %zu", keyword, frame.key.rank,
             static_cast<unsigned long long>(frame.key.nd_index),
             static_cast<unsigned long long>(frame.lc), frame.taken_src,
             frame.record_alts ? 1 : 0, frame.mix_budget,
             frame.untried.size());
  for (const mpism::Rank src : frame.untried) {
    out += strfmt(" %d", src);
  }
  out += strfmt(" s %zu", frame.seen.size());
  for (const mpism::Rank src : frame.seen) {
    out += strfmt(" %d", src);
  }
  if (frame.escape_alts) out += " e 1";
  if (!frame.sleep.empty()) {
    out += strfmt(" z %zu", frame.sleep.size());
    for (const mpism::Rank src : frame.sleep) {
      out += strfmt(" %d", src);
    }
  }
  if (frame.comm != mpism::kCommWorld || frame.tag != mpism::kAnyTag) {
    out += strfmt(" f %d %d", frame.comm, frame.tag);
  }
  if (!frame.vc.empty()) {
    out += strfmt(" v %zu", frame.vc.size());
    for (const std::uint64_t c : frame.vc) {
      out += strfmt(" %llu", static_cast<unsigned long long>(c));
    }
  }
  out += '\n';
  return out;
}

/// Inverse of serialize_frame (past the keyword). Absent trailers parse
/// to their defaults, so older journals load unchanged.
bool parse_frame(std::istringstream& ls, DfsFrame* frame,
                 std::string* error) {
  int record_alts = 0;
  std::string marker;
  std::size_t count = 0;
  if (!(ls >> frame->key.rank >> frame->key.nd_index >> frame->lc >>
        frame->taken_src >> record_alts >> frame->mix_budget >> marker >>
        count) ||
      marker != "u") {
    *error = "bad frame line";
    return false;
  }
  frame->record_alts = record_alts != 0;
  frame->untried.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!(ls >> frame->untried[i])) {
      *error = "truncated untried list";
      return false;
    }
  }
  if (!(ls >> marker >> count) || marker != "s") {
    *error = "bad seen list";
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    mpism::Rank src = -1;
    if (!(ls >> src)) {
      *error = "truncated seen list";
      return false;
    }
    frame->seen.insert(src);
  }
  while (ls >> marker) {
    if (marker == "e") {
      int escape = 0;
      if (!(ls >> escape)) {
        *error = "bad frame trailer";
        return false;
      }
      frame->escape_alts = escape != 0;
    } else if (marker == "z") {
      if (!(ls >> count)) {
        *error = "bad sleep list";
        return false;
      }
      for (std::size_t i = 0; i < count; ++i) {
        mpism::Rank src = -1;
        if (!(ls >> src)) {
          *error = "truncated sleep list";
          return false;
        }
        frame->sleep.insert(src);
      }
    } else if (marker == "f") {
      if (!(ls >> frame->comm >> frame->tag)) {
        *error = "bad footprint trailer";
        return false;
      }
    } else if (marker == "v") {
      if (!(ls >> count)) {
        *error = "bad vector-clock trailer";
        return false;
      }
      frame->vc.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        if (!(ls >> frame->vc[i])) {
          *error = "truncated vector-clock trailer";
          return false;
        }
      }
    } else {
      *error = "bad frame trailer";
      return false;
    }
  }
  return true;
}

}  // namespace

void store_counters(const ExploreResult& result, Checkpoint* checkpoint) {
  checkpoint->interleavings = result.interleavings;
  checkpoint->retries = result.retries;
  checkpoint->timeouts = result.timeouts;
  checkpoint->quarantined = result.quarantined;
  checkpoint->divergences = result.divergences;
  checkpoint->prefix_mismatches = result.prefix_mismatches;
  checkpoint->bugs = result.bugs;
  checkpoint->unsafe_alerts = result.unsafe_alerts;
}

void restore_counters(const Checkpoint& checkpoint, ExploreResult* result) {
  result->interleavings = checkpoint.interleavings;
  result->retries = checkpoint.retries;
  result->timeouts = checkpoint.timeouts;
  result->quarantined = checkpoint.quarantined;
  result->divergences = checkpoint.divergences;
  result->prefix_mismatches = checkpoint.prefix_mismatches;
  result->bugs = checkpoint.bugs;
  result->unsafe_alerts = checkpoint.unsafe_alerts;
}

std::string options_fingerprint(const ExplorerOptions& options) {
  std::string mix = "none";
  if (options.mixing_bound.has_value()) {
    mix = strfmt("%d", *options.mixing_bound);
  }
  std::string fp = strfmt(
      "nprocs=%d clock=%d transport=%d mix=%s loopabs=%d unsafe=%d "
      "autoloop=%d defsync=%d sched=%s schedseed=%llu por=%s policy=%d "
      "pseed=%llu init=%016llx",
      options.nprocs, static_cast<int>(options.clock_mode),
      static_cast<int>(options.transport), mix.c_str(),
      options.loop_abstraction ? 1 : 0, options.unsafe_monitor ? 1 : 0,
      options.auto_loop_threshold, options.deferred_clock_sync ? 1 : 0,
      mpism::sched_spec(options.sched).c_str(),
      static_cast<unsigned long long>(options.sched.seed),
      por_spec(options.por),
      static_cast<int>(options.policy),
      static_cast<unsigned long long>(options.policy_seed),
      static_cast<unsigned long long>(hash_schedule(options.initial_schedule)));
  fp += " fault=";
  fp += options.fault ? fault_spec(*options.fault) : "none";
  if (!options.checkpoint_tag.empty()) {
    fp += " tag=" + options.checkpoint_tag;
  }
  return fp;
}

std::string serialize_checkpoint(const Checkpoint& checkpoint) {
  std::string out = kCheckpointHeader;
  out += '\n';
  out += "options " + checkpoint.fingerprint + '\n';
  out += strfmt("interleavings %llu\n",
                static_cast<unsigned long long>(checkpoint.interleavings));
  out += strfmt("counters %llu %llu %llu %llu %llu\n",
                static_cast<unsigned long long>(checkpoint.retries),
                static_cast<unsigned long long>(checkpoint.timeouts),
                static_cast<unsigned long long>(checkpoint.quarantined),
                static_cast<unsigned long long>(checkpoint.divergences),
                static_cast<unsigned long long>(checkpoint.prefix_mismatches));
  if (!checkpoint.fault_fires.empty()) {
    out += strfmt("ffires %zu", checkpoint.fault_fires.size());
    for (const std::uint64_t f : checkpoint.fault_fires) {
      out += strfmt(" %llu", static_cast<unsigned long long>(f));
    }
    out += '\n';
  }
  for (const DfsFrame& frame : checkpoint.frames) {
    out += serialize_frame(frame, "frame");
  }
  for (const DfsFrame& frame : checkpoint.pending_sleep) {
    out += serialize_frame(frame, "pframe");
  }
  for (const BugRecord& bug : checkpoint.bugs) {
    out += strfmt("bug %d %llu\n", static_cast<int>(bug.kind),
                  static_cast<unsigned long long>(bug.interleaving));
    for (const mpism::ErrorInfo& err : bug.errors) {
      out += strfmt("berr %d %s\n", err.rank, escape_line(err.message).c_str());
    }
    out += "bdetail " + escape_line(bug.deadlock_detail) + '\n';
    for (const auto& [key, src] : bug.schedule.forced) {
      out += strfmt("bdec %d %llu %d\n", key.rank,
                    static_cast<unsigned long long>(key.nd_index), src);
    }
  }
  for (const std::string& alert : checkpoint.unsafe_alerts) {
    out += "alert " + escape_line(alert) + '\n';
  }
  out += "end\n";
  return out;
}

std::optional<Checkpoint> parse_checkpoint(
    const std::string& text, const std::string& expected_fingerprint,
    std::string* error) {
  auto fail = [error](std::string message) -> std::optional<Checkpoint> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  Checkpoint cp;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  bool saw_options = false;
  bool saw_end = false;
  BugRecord* open_bug = nullptr;

  while (std::getline(in, line)) {
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (saw_end) {
      return fail(strfmt("line %d: content after 'end' trailer", line_no));
    }
    // Same header discipline as decision files: the version line must be
    // the first non-blank line, or this is not a checkpoint at all.
    if (!saw_header) {
      if (line != kCheckpointHeader) {
        return fail(
            strfmt("line %d: first non-blank line must be the '%s' header",
                   line_no, kCheckpointHeader));
      }
      saw_header = true;
      continue;
    }
    if (line[0] == '#') continue;

    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;

    if (keyword == "options") {
      cp.fingerprint = rest_of_line(line, keyword.size());
      if (!expected_fingerprint.empty() &&
          cp.fingerprint != expected_fingerprint) {
        return fail(strfmt(
            "options fingerprint mismatch — checkpoint was written by a "
            "different configuration\n  checkpoint: %s\n  current:    %s",
            cp.fingerprint.c_str(), expected_fingerprint.c_str()));
      }
      saw_options = true;
    } else if (keyword == "interleavings") {
      if (!(ls >> cp.interleavings)) {
        return fail(strfmt("line %d: bad interleavings count", line_no));
      }
    } else if (keyword == "counters") {
      if (!(ls >> cp.retries >> cp.timeouts >> cp.quarantined >>
            cp.divergences >> cp.prefix_mismatches)) {
        return fail(strfmt("line %d: bad counters line", line_no));
      }
    } else if (keyword == "ffires") {
      std::size_t count = 0;
      if (!(ls >> count)) {
        return fail(strfmt("line %d: bad ffires line", line_no));
      }
      cp.fault_fires.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        if (!(ls >> cp.fault_fires[i])) {
          return fail(strfmt("line %d: truncated ffires line", line_no));
        }
      }
    } else if (keyword == "frame" || keyword == "pframe") {
      DfsFrame frame;
      std::string frame_error;
      if (!parse_frame(ls, &frame, &frame_error)) {
        return fail(strfmt("line %d: %s", line_no, frame_error.c_str()));
      }
      (keyword == "frame" ? cp.frames : cp.pending_sleep)
          .push_back(std::move(frame));
      open_bug = nullptr;
    } else if (keyword == "bug") {
      BugRecord bug;
      int kind = 0;
      if (!(ls >> kind >> bug.interleaving) || kind < 0 ||
          kind > static_cast<int>(BugRecord::Kind::kHang)) {
        return fail(strfmt("line %d: bad bug line", line_no));
      }
      bug.kind = static_cast<BugRecord::Kind>(kind);
      cp.bugs.push_back(std::move(bug));
      open_bug = &cp.bugs.back();
    } else if (keyword == "berr") {
      mpism::ErrorInfo err;
      if (open_bug == nullptr || !(ls >> err.rank)) {
        return fail(strfmt("line %d: berr outside a bug block", line_no));
      }
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
      err.message = unescape_line(rest);
      open_bug->errors.push_back(std::move(err));
    } else if (keyword == "bdetail") {
      if (open_bug == nullptr) {
        return fail(strfmt("line %d: bdetail outside a bug block", line_no));
      }
      open_bug->deadlock_detail = unescape_line(rest_of_line(line, keyword.size()));
    } else if (keyword == "bdec") {
      EpochKey key;
      mpism::Rank src = -1;
      if (open_bug == nullptr ||
          !(ls >> key.rank >> key.nd_index >> src)) {
        return fail(strfmt("line %d: bdec outside a bug block", line_no));
      }
      open_bug->schedule.forced[key] = src;
    } else if (keyword == "alert") {
      cp.unsafe_alerts.push_back(unescape_line(rest_of_line(line, keyword.size())));
      open_bug = nullptr;
    } else if (keyword == "end") {
      saw_end = true;
    } else {
      return fail(strfmt("line %d: unknown keyword '%s'", line_no,
                         keyword.c_str()));
    }
  }
  if (!saw_header) {
    return fail(strfmt("missing '%s' header", kCheckpointHeader));
  }
  if (!saw_options) {
    return fail("missing 'options' fingerprint line");
  }
  if (!saw_end) {
    return fail("truncated checkpoint (missing 'end' trailer)");
  }
  return cp;
}

bool save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << serialize_checkpoint(checkpoint);
    if (!out) return false;
  }
  // rename(2) is atomic within a filesystem: readers see either the old
  // complete checkpoint or the new one, never a torn write.
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<Checkpoint> load_checkpoint(
    const std::string& path, const std::string& expected_fingerprint,
    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_checkpoint(buffer.str(), expected_fingerprint, error);
}

bool validate_checkpoint(const Checkpoint& checkpoint, int nprocs,
                         std::string* error) {
  std::string what;
  auto check = [&](const char* field, mpism::Rank rank) {
    if (rank_in_range(rank, nprocs)) return true;
    what = strfmt("%s %d outside [0, %d)", field, rank, nprocs);
    return false;
  };
  auto frame_ok = [&](const DfsFrame& f) {
    if (!check("rank", f.key.rank)) return false;
    if (f.taken_src != -1 && !check("taken source", f.taken_src)) {
      return false;
    }
    for (const mpism::Rank src : f.untried) {
      if (!check("untried source", src)) return false;
    }
    for (const mpism::Rank src : f.seen) {
      if (src != -1 && !check("seen source", src)) return false;
    }
    for (const mpism::Rank src : f.sleep) {
      if (!check("sleep source", src)) return false;
    }
    return true;
  };
  for (const auto* frames : {&checkpoint.frames, &checkpoint.pending_sleep}) {
    for (std::size_t i = 0; i < frames->size(); ++i) {
      if (!frame_ok((*frames)[i])) {
        if (error != nullptr) {
          *error = strfmt("%s %zu: %s",
                          frames == &checkpoint.frames ? "frame" : "pframe",
                          i + 1, what.c_str());
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace dampi::core
