#include "core/checkpoint.hpp"

#include "common/line_record.hpp"
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
bool parse_frame(LineFields& f, DfsFrame* frame) {
  if (!f.read(&frame->key.rank) || !f.read(&frame->key.nd_index) ||
      !f.read(&frame->lc) || !f.read(&frame->taken_src) ||
      !f.read(&frame->record_alts) || !f.read(&frame->mix_budget) ||
      !f.expect("u") || !f.read_list(&frame->untried) || !f.expect("s") ||
      !f.read_list(&frame->seen)) {
    return false;
  }
  std::string_view marker;
  while (f.read(&marker)) {
    const bool ok =
        marker == "e"   ? f.read(&frame->escape_alts)
        : marker == "z" ? f.read_list(&frame->sleep)
        : marker == "f" ? f.read(&frame->comm) && f.read(&frame->tag)
                        : marker == "v" && f.read_list(&frame->vc);
    if (!ok) return false;
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
  // `loopabs=1 unsafe=1` name two features that are always on; they stay
  // in the text so existing checkpoints and sweep journals still resume.
  std::string fp = strfmt(
      "nprocs=%d clock=%d transport=%d mix=%s loopabs=1 unsafe=1 "
      "autoloop=%d defsync=%d sched=%s schedseed=%llu por=%s policy=%d "
      "pseed=%llu init=%016llx",
      options.nprocs, static_cast<int>(options.clock_mode),
      static_cast<int>(options.transport), mix.c_str(),
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
  Checkpoint cp;
  bool saw_options = false;
  BugRecord* open_bug = nullptr;
  LineReader in(text, kCheckpointHeader);
  while (in.next()) {
    const std::string_view keyword = in.keyword();
    LineFields& f = in.fields();
    bool ok = true;
    if (keyword == "options") {
      cp.fingerprint = f.rest();
      if (!expected_fingerprint.empty() &&
          cp.fingerprint != expected_fingerprint) {
        return refuse(error, in.at(strfmt(
            "options fingerprint mismatch — checkpoint was written by a "
            "different configuration\n  checkpoint: %s\n  current:    %s",
            cp.fingerprint.c_str(), expected_fingerprint.c_str())));
      }
      saw_options = true;
    } else if (keyword == "interleavings") {
      ok = f.read_exactly(&cp.interleavings);
    } else if (keyword == "counters") {
      ok = f.read_exactly(&cp.retries, &cp.timeouts, &cp.quarantined,
                          &cp.divergences, &cp.prefix_mismatches);
    } else if (keyword == "ffires") {
      ok = f.read_list(&cp.fault_fires) && f.done();
    } else if (keyword == "frame" || keyword == "pframe") {
      DfsFrame frame;
      ok = parse_frame(f, &frame);
      (keyword == "frame" ? cp.frames : cp.pending_sleep)
          .push_back(std::move(frame));
      open_bug = nullptr;
    } else if (keyword == "bug") {
      BugRecord bug;
      int kind = 0;
      if (!f.read_exactly(&kind, &bug.interleaving) || kind < 0 ||
          kind > static_cast<int>(BugRecord::Kind::kHang)) {
        return refuse(error, in.bad_line());
      }
      bug.kind = static_cast<BugRecord::Kind>(kind);
      cp.bugs.push_back(std::move(bug));
      open_bug = &cp.bugs.back();
    } else if (open_bug == nullptr &&
               (keyword == "berr" || keyword == "bdetail" ||
                keyword == "bdec")) {
      return refuse(error,
                    in.at(std::string(keyword) + " outside a bug block"));
    } else if (keyword == "berr") {
      mpism::ErrorInfo err;
      ok = f.read(&err.rank);
      err.message = f.unescaped_rest();
      open_bug->errors.push_back(std::move(err));
    } else if (keyword == "bdetail") {
      open_bug->deadlock_detail = f.unescaped_rest();
    } else if (keyword == "bdec") {
      EpochKey key;
      mpism::Rank src = -1;
      ok = read_decision(f, &key, &src);
      open_bug->schedule.forced[key] = src;
    } else if (keyword == "alert") {
      cp.unsafe_alerts.push_back(f.unescaped_rest());
      open_bug = nullptr;
    } else if (keyword == "end") {
      if (!in.end_trailer()) return refuse(error, in.error());
    } else {
      return refuse(error,
                    in.at("unknown keyword '" + std::string(keyword) + "'"));
    }
    if (!ok) return refuse(error, in.bad_line());
  }
  if (!in.error().empty()) return refuse(error, in.error());
  if (!saw_options) return refuse(error, "missing 'options' fingerprint line");
  if (!in.ended()) {
    return refuse(error, "truncated checkpoint (missing 'end' trailer)");
  }
  return cp;
}

bool save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  return write_file_atomic(path, serialize_checkpoint(checkpoint));
}

std::optional<Checkpoint> load_checkpoint(
    const std::string& path, const std::string& expected_fingerprint,
    std::string* error) {
  const auto text = read_file(path, error);
  if (!text.has_value()) return std::nullopt;
  return parse_checkpoint(*text, expected_fingerprint, error);
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
