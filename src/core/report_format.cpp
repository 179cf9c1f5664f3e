#include "core/report_format.hpp"

#include "common/strutil.hpp"

namespace dampi::core {

std::string format_bug(const BugRecord& bug) {
  std::string out;
  if (bug.kind == BugRecord::Kind::kDeadlock) {
    out += strfmt("DEADLOCK in interleaving %llu:\n",
                  static_cast<unsigned long long>(bug.interleaving));
    out += bug.deadlock_detail;
  } else if (bug.kind == BugRecord::Kind::kHang) {
    out += strfmt("HANG (watchdog) in interleaving %llu:\n",
                  static_cast<unsigned long long>(bug.interleaving));
    out += strfmt("  %s\n", bug.deadlock_detail.c_str());
  } else {
    out += strfmt("FAILURE in interleaving %llu:\n",
                  static_cast<unsigned long long>(bug.interleaving));
    for (const auto& error : bug.errors) {
      out += strfmt("  rank %d: %s\n", error.rank, error.message.c_str());
    }
  }
  if (bug.schedule.empty()) {
    out += "  (no decisions: the initial self-run hit it)\n";
  } else {
    out += "  epoch decisions to replay it:\n";
    for (const auto& [key, src] : bug.schedule.forced) {
      out += strfmt("    rank %d nd#%llu -> source %d\n", key.rank,
                    static_cast<unsigned long long>(key.nd_index), src);
    }
  }
  return out;
}

std::string format_verify_result(const VerifyResult& result) {
  const ExploreResult& e = result.exploration;
  std::string out;
  out += strfmt("interleavings explored : %llu%s\n",
                static_cast<unsigned long long>(e.interleavings),
                e.interleaving_budget_exhausted ? " (budget exhausted)"
                : e.time_budget_exhausted       ? " (time budget exhausted)"
                : e.interrupted                 ? " (interrupted)"
                                                : "");
  if (e.resumed) {
    out += "resumed from checkpoint: yes (first-run stats reflect the "
           "original walk)\n";
  }
  if (e.retries > 0 || e.timeouts > 0 || e.quarantined > 0) {
    out += strfmt("resilience             : %llu retries, %llu watchdog "
                  "timeouts, %llu quarantined\n",
                  static_cast<unsigned long long>(e.retries),
                  static_cast<unsigned long long>(e.timeouts),
                  static_cast<unsigned long long>(e.quarantined));
  }
  if (e.checkpoint_writes > 0) {
    out += strfmt("checkpoint writes      : %llu\n",
                  static_cast<unsigned long long>(e.checkpoint_writes));
  }
  out += strfmt("wildcard epochs (R*)   : %llu recv, %llu probe\n",
                static_cast<unsigned long long>(e.wildcard_recv_epochs),
                static_cast<unsigned long long>(e.wildcard_probe_epochs));
  out += strfmt("potential matches      : %llu (first run)\n",
                static_cast<unsigned long long>(
                    e.potential_matches_first_run));
  if (result.native_vtime_us > 0.0) {
    out += strfmt("slowdown vs native     : %.2fx\n", result.slowdown);
  }
  out += strfmt("communicator leaks     : %d\n", result.comm_leaks);
  out += strfmt("request leaks          : %llu\n",
                static_cast<unsigned long long>(result.request_leaks));
  if (e.divergences > 0) {
    out += strfmt("replay divergences     : %llu (timing-dependent ND "
                  "event sequence)\n",
                  static_cast<unsigned long long>(e.divergences));
  }
  for (const auto& alert : e.unsafe_alerts) {
    out += strfmt("unsafe pattern (S5)    : %s\n", alert.c_str());
  }
  if (e.bugs.empty()) {
    out += "verdict                : no deadlock or failure found\n";
  } else {
    out += strfmt("verdict                : %zu bug(s) found\n",
                  e.bugs.size());
    for (const auto& bug : e.bugs) out += format_bug(bug);
  }
  return out;
}

}  // namespace dampi::core
