// Text fingerprints of a run's deterministic outcome, for pinning and
// for differential comparisons: every field except wall-clock time,
// doubles in %a form so "equal" means bit-identical.
#pragma once

#include <string>

#include "common/strutil.hpp"
#include "core/epoch.hpp"
#include "core/replay_context.hpp"
#include "mpism/report.hpp"

namespace dampi::test {

/// Every deterministic field of a report (wall time excluded).
inline std::string fingerprint(const mpism::RunReport& r) {
  std::string s = strfmt(
      "completed=%d deadlocked=%d timed_out=%d cancelled=%d vtime=%a "
      "comm_leaks=%d req_leaks=%llu msgs=%llu tool_msgs=%llu",
      r.completed ? 1 : 0, r.deadlocked ? 1 : 0, r.timed_out() ? 1 : 0,
      r.cancelled ? 1 : 0, r.vtime_us, r.comm_leaks,
      static_cast<unsigned long long>(r.request_leaks),
      static_cast<unsigned long long>(r.messages_sent),
      static_cast<unsigned long long>(r.stats.tool_messages));
  s += "\nstop=" + r.stop_reason + "\ndeadlock=" + r.deadlock_detail;
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

/// A run's flushed DAMPI trace: counters, epochs and alerts.
inline std::string fingerprint(const core::RunTrace& t) {
  std::string s = strfmt(
      "recv=%llu probe=%llu pm=%llu late=%llu auto=%llu",
      static_cast<unsigned long long>(t.wildcard_recv_epochs),
      static_cast<unsigned long long>(t.wildcard_probe_epochs),
      static_cast<unsigned long long>(t.potential_matches),
      static_cast<unsigned long long>(t.late_messages_seen),
      static_cast<unsigned long long>(t.auto_abstracted_epochs));
  for (const core::EpochRecord& e : t.epochs) {
    s += strfmt("\nepoch (%d,%llu) lc=%llu comm=%d tag=%d probe=%d "
                "ignored=%d auto=%d matched=%d/%llu vc=",
                e.key.rank, static_cast<unsigned long long>(e.key.nd_index),
                static_cast<unsigned long long>(e.lc), e.comm, e.tag,
                e.is_probe ? 1 : 0, e.in_ignored_region ? 1 : 0,
                e.auto_abstracted ? 1 : 0, e.matched_src_world,
                static_cast<unsigned long long>(e.matched_seq));
    for (const auto v : e.vc) {
      s += strfmt("%llu,", static_cast<unsigned long long>(v));
    }
    for (const auto& [src, m] : e.alternatives) {
      s += strfmt(" alt %d seq=%llu tag=%d", src,
                  static_cast<unsigned long long>(m.seq), m.tag);
    }
  }
  for (const core::UnsafeAlert& a : t.alerts) {
    s += strfmt("\nalert rank=%d ", a.rank) + a.detail;
  }
  return s;
}

inline std::string fingerprint(const core::SingleRun& run) {
  return fingerprint(run.report) + "\n--\n" + fingerprint(run.trace) +
         strfmt("\ndivergences=%llu",
                static_cast<unsigned long long>(run.divergences));
}

}  // namespace dampi::test
