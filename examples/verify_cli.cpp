// dampi-verify: a command-line front end over the verifier.
//
// Usage:
//   verify_cli --list
//   verify_cli --program fig3 [--procs 3] [--k 1] [--clock vector]
//              [--max-interleavings 1000] [--deferred-sync]
//              [--auto-loop N] [--jobs N] [--isp]
//
// Programs: the paper's pattern fixtures, matmult, mini-ADLB, the
// ParMETIS proxy, and every Table II suite entry by name (104.milc, BT,
// LU, ...).
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>

#include "core/checkpoint.hpp"
#include "core/decision_io.hpp"
#include "core/report_format.hpp"
#include "core/verifier.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "mpism/cancel.hpp"
#include "mpism/fault.hpp"
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
  programs["matmult"] = [](mpism::Proc& p) {
    workloads::MatmultConfig config;
    config.n = 8;
    config.chunk_rows = 1;
    workloads::matmult(p, config);
  };
  programs["matmult-bug"] = [](mpism::Proc& p) {
    workloads::MatmultConfig config;
    config.n = 8;
    config.chunk_rows = 1;
    config.inject_order_bug = true;
    workloads::matmult(p, config);
  };
  programs["adlb"] = [](mpism::Proc& p) {
    workloads::adlb::Config config;
    config.roots_per_server = 4;
    workloads::adlb::run(p, config);
  };
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

int usage(const char* argv0) {
  std::printf(
      "usage: %s --program <name> [options]\n"
      "       %s --list\n"
      "options:\n"
      "  --procs N              ranks to simulate (default 4)\n"
      "  --k N                  bounded mixing window (default: unbounded)\n"
      "  --clock lamport|vector causality tracker (default lamport)\n"
      "  --max-interleavings N  exploration budget (default 4096)\n"
      "  --deferred-sync        enable the par-of-clocks fix for the S5 "
      "pattern\n"
      "  --auto-loop N          automatic loop detection threshold\n"
      "  --jobs N               replay-worker pool width (default 1; "
      "results\n"
      "                         are identical at every width)\n"
      "  --sched KIND           rank scheduler: coop / coop-rr, "
      "coop-random,\n"
      "                         coop-priority (deterministic run-to-block "
      "fibers;\n"
      "                         default coop-rr, or $DAMPI_SCHED when "
      "set) or\n"
      "                         thread (OS thread per rank)\n"
      "  --sched-seed N         seed for coop-random / coop-priority "
      "picks\n"
      "  --isp                  use the centralized ISP baseline instead\n"
      "  --save-repro FILE      write the first bug's epoch-decisions "
      "file\n"
      "  --replay FILE          run once under a saved epoch-decisions "
      "file\n"
      "  --trace FILE           record a Chrome trace_event JSON of the "
      "run\n"
      "                         (open in chrome://tracing or Perfetto)\n"
      "  --trace-capacity N     events retained per lane (default 16384)\n"
      "  --metrics              print the metrics registry after the run\n"
      "resilience options:\n"
      "  --run-deadline SEC     per-run watchdog: kill any single run "
      "after\n"
      "                         SEC wall seconds and report it as a HANG\n"
      "  --run-max-ops N        per-run watchdog on executed MPI "
      "operations\n"
      "  --max-wall-seconds S   global budget; cancels even an in-flight "
      "run\n"
      "  --retries N            re-run failed replays up to N times with\n"
      "                         exponential backoff before quarantining\n"
      "  --fault SPEC           deterministic fault injection, e.g.\n"
      "                         abort@1:3,delay@0:2:5000,flaky@1:1:2\n"
      "                         (kinds: abort, error, delay, flaky; "
      "points\n"
      "                         are rank:op-index, op indices 1-based)\n"
      "  --checkpoint FILE      journal the DFS frontier to FILE (atomic\n"
      "                         rename) for crash-safe --resume\n"
      "  --checkpoint-interval N  journal every N interleavings (default "
      "64)\n"
      "  --resume               continue from --checkpoint FILE instead "
      "of\n"
      "                         starting over (options must match); in "
      "sweep\n"
      "                         mode, continue from --sweep-journal "
      "without\n"
      "                         re-running completed plans\n"
      "fault-sweep options:\n"
      "  --sweep-faults         enumerate single-point fault plans over "
      "the\n"
      "                         program's op inventory and run one "
      "bounded\n"
      "                         campaign per plan (a crash-tolerance "
      "matrix);\n"
      "                         --max-interleavings bounds each plan's\n"
      "                         campaign, --workers runs plans "
      "concurrently\n"
      "  --sweep-budget N       max plans (default 64; abort/error "
      "points\n"
      "                         first, then sampled delay/flaky ones)\n"
      "  --sweep-seed N         seeds the delay/flaky sampler (default "
      "1)\n"
      "  --sweep-kinds SPEC     fault families to sweep, e.g. "
      "abort,delay\n"
      "                         (default all)\n"
      "  --sweep-report FILE    write the machine-readable JSON report;\n"
      "                         byte-identical for the same (program,\n"
      "                         options, budget, seed) at any --workers\n"
      "                         and across kill/--resume\n"
      "  --sweep-journal FILE   crash-safe journal of completed plans "
      "(atomic\n"
      "                         rename per plan) for --resume\n"
      "distributed options:\n"
      "  --workers N            distributed campaign: shard the frontier "
      "across\n"
      "                         N worker processes with work-stealing; "
      "the\n"
      "                         merged report and exit code are identical "
      "to a\n"
      "                         single-process run's\n"
      "  --dist-socket PATH     rendezvous over an AF_UNIX socket at PATH\n"
      "                         instead of inherited socketpairs\n"
      "  --worker               run as a campaign worker (spawned by the\n"
      "                         coordinator; not for direct use)\n"
      "  --worker-id N          this worker's id within the campaign\n"
      "  --coordinator-socket S worker-side channel: fd:N or a socket "
      "path\n"
      "exit codes: 0 clean, 1 bug(s) found, 2 budget exhausted / "
      "interrupted /\n"
      "            quarantined subtrees, 3 usage or internal error\n",
      argv0, argv0);
  return 3;
}

/// Parses all of `text` as a number no smaller than `lo` into *out.
/// Trailing junk, a sign on an unsigned flag, and out-of-range or
/// non-finite values are rejected with a diagnostic naming `flag`.
template <typename T>
bool parse_number(const std::string& flag, const char* text, T lo, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end && ptr != text && value >= lo;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::ostringstream want;
    want << (std::is_integral_v<T> ? "an integer" : "a number") << " >= "
         << lo;
    std::printf("bad %s value '%s': want %s\n", flag.c_str(), text,
                want.str().c_str());
    return false;
  }
  *out = value;
  return true;
}

/// SIGINT lands here; a bridge thread polls the flag and fires the
/// CancelSource (not async-signal-safe, so it cannot run in the
/// handler). A second ^C gets the default disposition: immediate death.
volatile std::sig_atomic_t g_sigint = 0;

void handle_sigint(int) {
  g_sigint = 1;
  std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  const auto programs = program_registry();

  std::string name;
  int procs = 4;
  std::optional<int> k;
  core::ClockMode clock_mode = core::ClockMode::kLamport;
  std::uint64_t max_interleavings = 4096;
  bool deferred_sync = false;
  int auto_loop = 0;
  int jobs = 1;
  mpism::SchedOptions sched = mpism::default_sched_options();
  bool use_isp = false;
  std::string save_repro_path;
  std::string replay_path;
  std::string trace_path;
  std::size_t trace_capacity = 0;
  bool print_metrics = false;
  double run_deadline_seconds = 0.0;
  std::uint64_t run_max_ops = 0;
  double max_wall_seconds = 0.0;  // 0 = unlimited
  int retries = 0;
  std::string fault_spec_arg;
  std::string checkpoint_path;
  std::uint64_t checkpoint_interval = 64;
  bool resume = false;
  bool sweep_faults = false;
  std::uint64_t sweep_budget = 64;
  std::uint64_t sweep_seed = 1;
  sweep::SweepKinds sweep_kinds;
  std::string sweep_report_path;
  std::string sweep_journal_path;
  int workers = 0;  // 0 = in-process exploration (the default)
  std::string dist_socket;
  bool worker_mode = false;
  int worker_id = 0;
  std::string coordinator_socket;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Reads this flag's value into *out; false once a missing or bad
    // value has been reported.
    auto number = [&](auto* out, auto lo) {
      using T = std::remove_pointer_t<decltype(out)>;
      const char* v = next();
      if (v == nullptr) {
        usage(argv[0]);
        return false;
      }
      return parse_number<T>(arg, v, static_cast<T>(lo), out);
    };
    if (arg == "--list") {
      for (const auto& [prog_name, fn] : programs) {
        std::printf("%s\n", prog_name.c_str());
      }
      return 0;
    } else if (arg == "--program") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      name = v;
    } else if (arg == "--procs") {
      if (!number(&procs, 1)) return 3;
    } else if (arg == "--k") {
      int window = 0;
      if (!number(&window, 0)) return 3;
      k = window;
    } else if (arg == "--clock") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "lamport") == 0) {
        clock_mode = core::ClockMode::kLamport;
      } else if (std::strcmp(v, "vector") == 0) {
        clock_mode = core::ClockMode::kVector;
      } else {
        std::printf("unknown --clock value: %s (want lamport or vector)\n", v);
        return 3;
      }
    } else if (arg == "--max-interleavings") {
      if (!number(&max_interleavings, 0)) return 3;
    } else if (arg == "--deferred-sync") {
      deferred_sync = true;
    } else if (arg == "--auto-loop") {
      if (!number(&auto_loop, 0)) return 3;
    } else if (arg == "--jobs") {
      if (!number(&jobs, 1)) return 3;
    } else if (arg == "--sched") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (!mpism::parse_sched_spec(v, &sched)) {
        std::printf("unknown --sched value: %s\n", v);
        return usage(argv[0]);
      }
    } else if (arg == "--sched-seed") {
      if (!number(&sched.seed, 0)) return 3;
    } else if (arg == "--isp") {
      use_isp = true;
    } else if (arg == "--save-repro") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      save_repro_path = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      replay_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      trace_path = v;
    } else if (arg == "--trace-capacity") {
      if (!number(&trace_capacity, 0)) return 3;
    } else if (arg == "--metrics") {
      print_metrics = true;
    } else if (arg == "--run-deadline") {
      if (!number(&run_deadline_seconds, 0)) return 3;
    } else if (arg == "--run-max-ops") {
      if (!number(&run_max_ops, 0)) return 3;
    } else if (arg == "--max-wall-seconds") {
      if (!number(&max_wall_seconds, 0)) return 3;
    } else if (arg == "--retries") {
      if (!number(&retries, 0)) return 3;
    } else if (arg == "--fault") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      fault_spec_arg = v;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      checkpoint_path = v;
    } else if (arg == "--checkpoint-interval") {
      if (!number(&checkpoint_interval, 1)) return 3;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--sweep-faults") {
      sweep_faults = true;
    } else if (arg == "--sweep-budget") {
      if (!number(&sweep_budget, 1)) return 3;
    } else if (arg == "--sweep-seed") {
      if (!number(&sweep_seed, 0)) return 3;
    } else if (arg == "--sweep-kinds") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      std::string error;
      if (!sweep::parse_sweep_kinds(v, &sweep_kinds, &error)) {
        std::printf("bad --sweep-kinds: %s\n", error.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--sweep-report") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      sweep_report_path = v;
    } else if (arg == "--sweep-journal") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      sweep_journal_path = v;
    } else if (arg == "--workers") {
      if (!number(&workers, 1)) return 3;
    } else if (arg == "--dist-socket") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      dist_socket = v;
    } else if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--worker-id") {
      if (!number(&worker_id, 0)) return 3;
    } else if (arg == "--coordinator-socket") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      coordinator_socket = v;
    } else {
      std::printf("unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  auto it = programs.find(name);
  if (it == programs.end()) {
    std::printf("unknown or missing --program (try --list)\n");
    return usage(argv[0]);
  }

  if (!trace_path.empty()) {
    if (!DAMPI_TRACE_ENABLED) {
      std::printf(
          "warning: this binary was built with DAMPI_TRACE=OFF; the "
          "trace will contain no events\n");
    }
    if (trace_capacity > 0) {
      obs::Tracer::instance().set_capacity(trace_capacity);
    }
    obs::Tracer::instance().set_enabled(true);
  }
  // Emits the trace/metrics on every exit path of the run below.
  auto finish = [&](int code) {
    if (!trace_path.empty()) {
      obs::Tracer::instance().set_enabled(false);
      if (obs::write_chrome_trace(trace_path)) {
        std::printf("trace written          : %s\n", trace_path.c_str());
      } else {
        std::printf("could not write trace %s\n", trace_path.c_str());
        code = code == 0 ? 3 : code;
      }
    }
    if (print_metrics) {
      std::printf("metrics:\n%s", obs::Registry::instance().dump().c_str());
    }
    return code;
  };

  core::ExplorerOptions explorer_options;
  explorer_options.nprocs = procs;
  explorer_options.mixing_bound = k;
  explorer_options.clock_mode = clock_mode;
  explorer_options.max_interleavings = max_interleavings;
  explorer_options.deferred_clock_sync = deferred_sync;
  explorer_options.auto_loop_threshold = auto_loop;
  explorer_options.jobs = jobs;
  explorer_options.sched = sched;
  explorer_options.run_deadline_seconds = run_deadline_seconds;
  explorer_options.max_run_ops = run_max_ops;
  if (max_wall_seconds > 0.0) {
    explorer_options.max_wall_seconds = max_wall_seconds;
  }
  explorer_options.max_retries = retries;
  explorer_options.checkpoint_path = checkpoint_path;
  explorer_options.checkpoint_interval = checkpoint_interval;
  explorer_options.checkpoint_tag = name;
  if (!fault_spec_arg.empty()) {
    std::string error;
    explorer_options.fault = mpism::parse_fault_plan(fault_spec_arg, &error);
    if (!explorer_options.fault) {
      std::printf("bad --fault spec: %s\n", error.c_str());
      return usage(argv[0]);
    }
    // Eager semantic validation: a point aimed at a rank this campaign
    // does not simulate would sit silently unreachable for the whole
    // run — reject it now, naming the offending point.
    error = mpism::validate_fault_plan(*explorer_options.fault, procs);
    if (!error.empty()) {
      std::printf("bad --fault spec: %s\n", error.c_str());
      return 3;
    }
  }

  if (sweep_faults) {
    // The sweep owns fault injection, campaign scheduling, and its own
    // journal; modes that would fight over those are rejected eagerly.
    const char* conflict = nullptr;
    if (!fault_spec_arg.empty()) conflict = "--fault";
    if (use_isp) conflict = "--isp";
    if (!replay_path.empty()) conflict = "--replay";
    if (worker_mode) conflict = "--worker";
    if (!checkpoint_path.empty()) conflict = "--checkpoint";
    if (!dist_socket.empty()) conflict = "--dist-socket";
    if (!save_repro_path.empty()) conflict = "--save-repro";
    if (conflict != nullptr) {
      std::printf("--sweep-faults cannot be combined with %s\n", conflict);
      return usage(argv[0]);
    }
    if (resume && sweep_journal_path.empty()) {
      std::printf("--resume in sweep mode requires --sweep-journal FILE\n");
      return usage(argv[0]);
    }
  }
  if (worker_mode) {
    if (coordinator_socket.empty()) {
      std::printf("--worker requires --coordinator-socket\n");
      return usage(argv[0]);
    }
    // A terminal ^C goes to the whole foreground process group; workers
    // must ignore it and let the coordinator cancel them cooperatively
    // over the channel, or every ^C would look like a crash storm.
    std::signal(SIGINT, SIG_IGN);
    dist::WorkerConfig config;
    config.socket_spec = coordinator_socket;
    config.worker_id = worker_id;
    config.options = explorer_options;
    return dist::run_worker(config, it->second);
  }

  if (resume && !sweep_faults) {
    if (checkpoint_path.empty()) {
      std::printf("--resume requires --checkpoint FILE\n");
      return usage(argv[0]);
    }
    std::string error;
    auto cp = core::load_checkpoint(
        checkpoint_path, core::options_fingerprint(explorer_options), &error);
    if (!cp.has_value() || !core::validate_checkpoint(*cp, procs, &error)) {
      std::printf("cannot resume from %s: %s\n", checkpoint_path.c_str(),
                  error.c_str());
      return 3;
    }
    explorer_options.resume_from =
        std::make_shared<core::Checkpoint>(std::move(*cp));
  }

  // ^C cancels the campaign cooperatively: in-flight runs unwind, the
  // final checkpoint flush journals the frontier, and the partial
  // report is still printed.
  auto cancel = std::make_shared<mpism::CancelSource>();
  explorer_options.cancel = cancel;
  std::signal(SIGINT, handle_sigint);
  std::atomic<bool> bridge_stop{false};
  std::thread sigint_bridge([&] {
    while (!bridge_stop.load(std::memory_order_acquire)) {
      if (g_sigint != 0) {
        cancel->cancel("SIGINT");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });
  auto stop_bridge = [&] {
    bridge_stop.store(true, std::memory_order_release);
    if (sigint_bridge.joinable()) sigint_bridge.join();
  };

  if (sweep_faults) {
    sweep::SweepOptions sweep_options;
    sweep_options.explorer = explorer_options;
    // Per-campaign budget, not a whole-sweep one: each plan's
    // exploration is bounded by the interleaving budget independently.
    sweep_options.plan_max_interleavings = max_interleavings;
    if (max_wall_seconds > 0.0) {
      sweep_options.plan_wall_seconds = max_wall_seconds;
    }
    sweep_options.program_name = name;
    sweep_options.budget = sweep_budget;
    sweep_options.seed = sweep_seed;
    sweep_options.kinds = sweep_kinds;
    // --workers here fans plan campaigns out across threads (no
    // coordinator processes: campaigns are already independent).
    sweep_options.workers = workers > 0 ? workers : 1;
    sweep_options.journal_path = sweep_journal_path;
    sweep_options.resume = resume;
    sweep_options.cancel = cancel;

    const sweep::SweepResult sweep_result =
        sweep::run_sweep(sweep_options, it->second);
    stop_bridge();
    std::printf("%s",
                sweep::format_sweep_summary(sweep_options, sweep_result)
                    .c_str());
    int code = sweep::sweep_exit_code(sweep_result);
    if (!sweep_journal_path.empty() && sweep_result.error.empty()) {
      std::printf("sweep journal          : %s%s\n",
                  sweep_journal_path.c_str(),
                  sweep_result.interrupted ? " (resume with --resume)" : "");
    }
    if (!sweep_report_path.empty() && sweep_result.error.empty()) {
      std::FILE* out = std::fopen(sweep_report_path.c_str(), "w");
      const std::string report =
          sweep::format_sweep_report_json(sweep_options, sweep_result);
      if (out == nullptr ||
          std::fwrite(report.data(), 1, report.size(), out) !=
              report.size()) {
        std::printf("could not write %s\n", sweep_report_path.c_str());
        code = code == 0 ? 3 : code;
      } else {
        std::printf("sweep report           : %s\n",
                    sweep_report_path.c_str());
      }
      if (out != nullptr) std::fclose(out);
    }
    return finish(code);
  }

  if (!replay_path.empty()) {
    std::string error;
    const auto schedule = core::load_schedule(replay_path, &error);
    if (!schedule.has_value() ||
        !core::validate_schedule(*schedule, explorer_options.nprocs, &error)) {
      std::printf("cannot load %s: %s\n", replay_path.c_str(), error.c_str());
      stop_bridge();
      return 3;
    }
    const auto run =
        core::run_guided_once(explorer_options, *schedule, it->second);
    stop_bridge();
    std::printf("replay of %s (%zu decisions):\n", replay_path.c_str(),
                schedule->forced.size());
    if (run.report.deadlocked) {
      std::printf("DEADLOCK reproduced:\n%s",
                  run.report.deadlock_detail.c_str());
      return finish(1);
    }
    if (!run.report.errors.empty()) {
      std::printf("FAILURE reproduced:\n");
      for (const auto& error_info : run.report.errors) {
        std::printf("  rank %d: %s\n", error_info.rank,
                    error_info.message.c_str());
      }
      return finish(1);
    }
    if (run.report.timed_out) {
      std::printf("HANG reproduced: %s\n", run.report.stop_reason.c_str());
      return finish(1);
    }
    if (run.report.cancelled) {
      std::printf("replay interrupted: %s\n", run.report.stop_reason.c_str());
      return finish(2);
    }
    std::printf("run completed cleanly (divergences: %llu)\n",
                static_cast<unsigned long long>(run.divergences));
    return finish(0);
  }

  const bool distributed = workers > 0;
  if (distributed && use_isp) {
    std::printf("--workers is not supported with --isp\n");
    stop_bridge();
    return usage(argv[0]);
  }

  core::VerifyResult result;
  std::string dist_error;
  dist::DistStats dist_stats;
  if (distributed) {
    // Native baseline first (same as Verifier::verify), then the
    // sharded campaign instead of the in-process walk.
    const double native_vtime_us =
        core::measure_native_vtime(explorer_options, it->second);

    dist::DistOptions dist_options;
    dist_options.workers = workers;
    dist_options.socket_path = dist_socket;
    dist_options.explorer = explorer_options;
    // Workers re-parse this binary's own arguments, minus anything that
    // is coordinator-only (reporting, the distributed flags themselves,
    // --resume: shards already embed the restored state).
    dist_options.worker_argv.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workers" || arg == "--dist-socket" || arg == "--trace" ||
          arg == "--trace-capacity" || arg == "--save-repro") {
        ++i;  // skip the flag's value too
        continue;
      }
      if (arg == "--metrics" || arg == "--resume") continue;
      dist_options.worker_argv.push_back(arg);
    }

    dist::DistResult dist_result = dist::run_distributed(dist_options,
                                                         it->second);
    dist_error = dist_result.error;
    dist_stats = dist_result.stats;
    for (const auto& [wid, dump] : dist_result.worker_metrics) {
      obs::Registry::instance().merge_dump(dump, "w" + std::to_string(wid));
    }
    result = core::summarize_verify(std::move(dist_result.exploration),
                                    native_vtime_us);
  } else if (use_isp) {
    isp::IspOptions options;
    options.explorer = explorer_options;
    isp::IspVerifier verifier(options);
    result = verifier.verify(it->second);
  } else {
    core::VerifyOptions options;
    options.explorer = explorer_options;
    core::Verifier verifier(options);
    result = verifier.verify(it->second);
  }
  stop_bridge();

  std::printf("program                : %s (%d ranks, %s, sched %s)\n",
              name.c_str(), procs, use_isp ? "ISP baseline" : "DAMPI",
              mpism::sched_spec(sched).c_str());
  if (distributed) {
    std::printf(
        "distributed campaign   : %d workers (%d spawned), %llu shards "
        "(%llu stolen, %llu escaped, %llu requeued), %d worker deaths\n",
        workers, dist_stats.workers_spawned,
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
  if (!save_repro_path.empty()) {
    if (core::save_schedule(result.exploration.bugs.front().schedule,
                            save_repro_path)) {
      std::printf("reproducer saved       : %s (replay with --replay)\n",
                  save_repro_path.c_str());
    } else {
      std::printf("could not write %s\n", save_repro_path.c_str());
    }
  }
  return finish(1);
}
