// dampi-verify: a command-line front end over the verifier.
//
//   verify_cli --list
//   verify_cli --program fig3 [--procs 3] [--clock vector] [--workers N] ...
//   verify_cli          (no arguments: the usage text, every flag)
//
// The flags are one table (src/cli/flags.*); this file holds the program
// registry (the paper's pattern fixtures, matmult, mini-ADLB, the
// ParMETIS proxy and every Table II suite entry by name) and the mode
// dispatch: fault sweep, replay, distributed campaign, ISP baseline or
// in-process verification.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cli/flags.hpp"
#include "common/line_record.hpp"
#include "core/checkpoint.hpp"
#include "core/decision_io.hpp"
#include "core/report_format.hpp"
#include "core/verifier.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "mpism/cancel.hpp"
#include "isp/isp_verifier.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sweep/sweep.hpp"
#include "workloads/adlb.hpp"
#include "workloads/matmult.hpp"
#include "workloads/parmetis_proxy.hpp"
#include "workloads/patterns.hpp"
#include "workloads/suites.hpp"

using namespace dampi;

namespace {

std::map<std::string, mpism::ProgramFn> program_registry() {
  std::map<std::string, mpism::ProgramFn> programs;
  programs["fig3"] = workloads::fig3_wildcard_bug;
  programs["fig3-benign"] = workloads::fig3_benign;
  programs["fig4"] = workloads::fig4_cross_coupled;
  programs["fig10"] = workloads::fig10_unsafe_pattern;
  programs["deadlock"] = workloads::simple_deadlock;
  programs["wildcard-deadlock"] = workloads::wildcard_dependent_deadlock;
  programs["leaky"] = workloads::leaky_program;
  programs["livelock"] = workloads::livelock;
  programs["dist-fanout"] = [](mpism::Proc& p) {
    workloads::dist_fanout(p, /*rounds=*/2, /*spin_us=*/200.0);
  };
  programs["fan-in-groups"] = [](mpism::Proc& p) {
    workloads::fan_in_groups(p, /*groups=*/p.size() / 3);
  };
  // matmult: n = 8 in one-row chunks; adlb: 4 roots per server.
  programs["matmult"] = [](mpism::Proc& p) { workloads::matmult(p, {}); };
  programs["matmult-bug"] = [](mpism::Proc& p) {
    workloads::matmult(p, {.inject_order_bug = true});
  };
  programs["adlb"] = [](mpism::Proc& p) { workloads::adlb::run(p, {}); };
  programs["parmetis"] = [](mpism::Proc& p) {
    workloads::parmetis_proxy(p, workloads::ParmetisConfig{}.scaled(5));
  };
  for (const auto& entry : workloads::table2_suite()) {
    programs[entry.spec.name] = [spec = entry.spec](mpism::Proc& p) {
      workloads::run_skeleton(p, spec);
    };
  }
  return programs;
}

/// SIGINT lands here; a bridge thread polls the flag and fires the
/// CancelSource (not async-signal-safe, so it cannot run in the
/// handler). A second ^C gets the default disposition: immediate death.
volatile std::sig_atomic_t g_sigint = 0;

void handle_sigint(int) {
  g_sigint = 1;
  std::signal(SIGINT, SIG_DFL);
}

int refuse(const cli::Refusal& refusal, const char* argv0) {
  std::printf("%s\n", refusal.message.c_str());
  if (refusal.usage) std::printf("%s", cli::usage(argv0).c_str());
  return 3;
}

}  // namespace

// Exit 3 is the usage-or-internal-error code: an exception escaping a
// mode (an allocation failure, say) is reported, not an abort.
int main(int argc, char** argv) try {
  cli::Options o;
  if (const auto refusal = cli::parse({argv + 1, argv + argc}, &o)) {
    return refuse(*refusal, argv[0]);
  }

  const auto programs = program_registry();
  if (o.list) {
    for (const auto& entry : programs) std::printf("%s\n", entry.first.c_str());
    return 0;
  }
  const auto it = programs.find(o.program);
  if (it == programs.end()) {
    return refuse({"unknown or missing --program (try --list)", true}, argv[0]);
  }

  if (!o.trace.empty()) {
    if (o.trace_capacity > 0) {
      obs::Tracer::instance().set_capacity(o.trace_capacity);
    }
    obs::Tracer::instance().set_enabled(true);
  }
  // Emits the trace/metrics on every exit path of the run below.
  auto finish = [&](int code) {
    if (!o.trace.empty()) {
      obs::Tracer::instance().set_enabled(false);
      if (obs::write_chrome_trace(o.trace)) {
        std::printf("trace written          : %s\n", o.trace.c_str());
      } else {
        std::printf("could not write trace %s\n", o.trace.c_str());
        code = code == 0 ? 3 : code;
      }
    }
    if (o.metrics) {
      std::printf("metrics:\n%s", obs::Registry::instance().dump().c_str());
    }
    return code;
  };

  if (o.worker) {
    // A terminal ^C goes to the whole foreground process group; workers
    // must ignore it and let the coordinator cancel them cooperatively
    // over the channel, or every ^C would look like a crash storm.
    std::signal(SIGINT, SIG_IGN);
    return dist::run_worker({.socket_spec = o.coordinator_socket,
                             .worker_id = o.worker_id,
                             .options = o.explorer},
                            it->second);
  }

  if (o.resume && !o.sweep_faults) {
    const std::string& path = o.explorer.checkpoint_path;
    std::string error;
    auto cp = core::load_checkpoint(path, core::options_fingerprint(o.explorer),
                                    &error);
    if (!cp.has_value() ||
        !core::validate_checkpoint(*cp, o.explorer.nprocs, &error)) {
      std::printf("cannot resume from %s: %s\n", path.c_str(), error.c_str());
      return 3;
    }
    // A frame flagged `e 1` (escape_alts) belongs to a coordinator-owned
    // site: only a campaign worker's <ckpt>.wN journal has one, and a
    // standalone walk over it could not hand its escapes to anyone.
    const auto shard_frame =
        std::find_if(cp->frames.begin(), cp->frames.end(),
                     [](const core::DfsFrame& f) { return f.escape_alts; });
    if (shard_frame != cp->frames.end()) {
      std::printf(
          "cannot resume from %s: frame %td has the escape flag (e 1): "
          "worker shard journal; resume the campaign, not the shard\n",
          path.c_str(), shard_frame - cp->frames.begin());
      return 3;
    }
    o.explorer.resume_from =
        std::make_shared<core::Checkpoint>(std::move(*cp));
  }

  // ^C cancels the campaign cooperatively: in-flight runs unwind, the
  // final checkpoint flush journals the frontier, and the partial
  // report is still printed. The bridge is joined on every way out.
  auto cancel = std::make_shared<mpism::CancelSource>();
  o.explorer.cancel = cancel;
  std::signal(SIGINT, handle_sigint);
  const std::jthread sigint_bridge([cancel](std::stop_token stop) {
    while (!stop.stop_requested() && g_sigint == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (g_sigint != 0) cancel->cancel("SIGINT");
  });

  if (o.sweep_faults) {
    o.sweep.explorer = o.explorer;
    o.sweep.cancel = cancel;
    const sweep::SweepResult result = sweep::run_sweep(o.sweep, it->second);
    std::printf("%s", sweep::format_sweep_summary(o.sweep, result).c_str());
    int code = sweep::sweep_exit_code(result);
    if (!o.sweep.journal_path.empty() && result.error.empty()) {
      std::printf("sweep journal          : %s%s\n",
                  o.sweep.journal_path.c_str(),
                  result.interrupted ? " (resume with --resume)" : "");
    }
    if (!o.sweep_report.empty() && result.error.empty()) {
      const std::string json = sweep::format_sweep_report_json(o.sweep, result);
      if (!write_file_atomic(o.sweep_report, json)) {
        std::printf("could not write %s\n", o.sweep_report.c_str());
        code = code == 0 ? 3 : code;
      } else {
        std::printf("sweep report           : %s\n", o.sweep_report.c_str());
      }
    }
    return finish(code);
  }

  if (!o.replay.empty()) {
    std::string error;
    const auto schedule = core::load_schedule(o.replay, &error);
    if (!schedule.has_value() ||
        !core::validate_schedule(*schedule, o.explorer.nprocs, &error)) {
      std::printf("cannot load %s: %s\n", o.replay.c_str(), error.c_str());
      return 3;
    }
    const auto run = core::run_guided_once(o.explorer, *schedule, it->second);
    const mpism::RunReport& report = run.report;
    std::printf("replay of %s (%zu decisions):\n", o.replay.c_str(),
                schedule->forced.size());
    int code = 1;
    if (report.deadlocked) {
      std::printf("DEADLOCK reproduced:\n%s", report.deadlock_detail.c_str());
    } else if (!report.errors.empty()) {
      std::printf("FAILURE reproduced:\n");
      for (const auto& error_info : report.errors) {
        std::printf("  rank %d: %s\n", error_info.rank,
                    error_info.message.c_str());
      }
    } else if (report.timed_out) {
      std::printf("HANG reproduced: %s\n", report.stop_reason.c_str());
    } else if (report.cancelled) {
      std::printf("replay interrupted: %s\n", report.stop_reason.c_str());
      code = 2;
    } else {
      std::printf("run completed cleanly (divergences: %llu)\n",
                  static_cast<unsigned long long>(run.divergences));
      code = 0;
    }
    return finish(code);
  }

  const bool distributed = o.workers > 0;
  core::VerifyResult result;
  std::string dist_error;
  dist::DistStats dist_stats;
  if (distributed) {
    // Native baseline first (same as Verifier::verify), then the
    // sharded campaign instead of the in-process walk.
    const double native_vtime_us =
        core::measure_native_vtime(o.explorer, it->second);

    dist::DistOptions dist_options;
    dist_options.workers = o.workers;
    dist_options.explorer = o.explorer;
    // Workers re-parse this binary's arguments minus the coordinator-only
    // flags (--resume among them: shards embed the restored state).
    dist_options.worker_argv = o.worker_args;
    dist_options.worker_argv.insert(dist_options.worker_argv.begin(), argv[0]);

    dist::DistResult dist_result = dist::run_distributed(dist_options,
                                                         it->second);
    dist_error = dist_result.error;
    dist_stats = dist_result.stats;
    for (const auto& [wid, dump] : dist_result.worker_metrics) {
      obs::Registry::instance().merge_dump(dump, "w" + std::to_string(wid));
    }
    result = core::summarize_verify(std::move(dist_result.exploration),
                                    native_vtime_us);
  } else if (o.isp) {
    result = isp::IspVerifier({.explorer = o.explorer}).verify(it->second);
  } else {
    result = core::Verifier({.explorer = o.explorer}).verify(it->second);
  }

  std::printf("program                : %s (%d ranks, %s, sched %s)\n",
              o.program.c_str(), o.explorer.nprocs,
              o.isp ? "ISP baseline" : "DAMPI",
              mpism::sched_spec(o.explorer.sched).c_str());
  if (distributed) {
    std::printf(
        "distributed campaign   : %d workers (%d spawned), %llu shards "
        "(%llu stolen, %llu escaped, %llu requeued), %d worker deaths\n",
        o.workers, dist_stats.workers_spawned,
        static_cast<unsigned long long>(dist_stats.shards_initial),
        static_cast<unsigned long long>(dist_stats.shards_stolen),
        static_cast<unsigned long long>(dist_stats.shards_escaped),
        static_cast<unsigned long long>(dist_stats.shards_requeued),
        dist_stats.worker_deaths);
  }
  std::printf("%s", core::format_verify_result(result).c_str());
  if (!dist_error.empty()) {
    std::printf("campaign error         : %s\n", dist_error.c_str());
    return finish(3);
  }
  const core::ExploreResult& e = result.exploration;
  if (e.bugs.empty()) {
    // No verdicts, but a partial search is not a clean bill of health:
    // exhausted budgets, interruption, and quarantined subtrees all mean
    // coverage is incomplete.
    const bool partial = e.interleaving_budget_exhausted ||
                         e.time_budget_exhausted || e.interrupted ||
                         e.quarantined > 0;
    return finish(partial ? 2 : 0);
  }
  if (!o.save_repro.empty()) {
    if (core::save_schedule(e.bugs.front().schedule, o.save_repro)) {
      std::printf("reproducer saved       : %s (replay with --replay)\n",
                  o.save_repro.c_str());
    } else {
      std::printf("could not write %s\n", o.save_repro.c_str());
    }
  }
  return finish(1);
} catch (const std::exception& e) {
  std::printf("internal error: %s\n", e.what());
  return 3;
}
