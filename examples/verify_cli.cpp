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
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>

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
      "  --sched KIND           rank scheduler: thread (OS thread per "
      "rank),\n"
      "                         coop / coop-rr, coop-random, coop-priority\n"
      "                         (deterministic run-to-block fibers; "
      "default\n"
      "                         thread, or $DAMPI_SCHED when set)\n"
      "  --sched-seed N         seed for coop-random / coop-priority "
      "picks\n"
      "  --match KIND           message matcher: indexed (O(1) lanes, "
      "default)\n"
      "                         or linear (scan oracle; $DAMPI_MATCH when "
      "set)\n"
      "  --engine-lock KIND     engine locking: sharded (per-rank shards, "
      "default)\n"
      "                         or global (single-mutex baseline; "
      "$DAMPI_ENGINE_LOCK\n"
      "                         when set); verdicts are identical across "
      "modes\n"
      "  --por MODE             partial-order reduction: sleep "
      "(commuting-decision\n"
      "                         sleep sets, default) or off (full "
      "cross-product\n"
      "                         baseline; $DAMPI_POR when set); same bugs "
      "and\n"
      "                         per-epoch outcomes in <= interleavings\n"
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
  mpism::MatchKind match = mpism::default_match_kind();
  mpism::EngineLockKind engine_lock = mpism::default_engine_lock_kind();
  core::PorMode por = core::default_por_mode();
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
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      procs = std::atoi(v);
    } else if (arg == "--k") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      k = std::atoi(v);
    } else if (arg == "--clock") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      clock_mode = std::strcmp(v, "vector") == 0 ? core::ClockMode::kVector
                                                 : core::ClockMode::kLamport;
    } else if (arg == "--max-interleavings") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      max_interleavings = std::strtoull(v, nullptr, 10);
    } else if (arg == "--deferred-sync") {
      deferred_sync = true;
    } else if (arg == "--auto-loop") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      auto_loop = std::atoi(v);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      jobs = std::atoi(v);
      if (jobs < 1) {
        std::printf("--jobs must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (arg == "--sched") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (!mpism::parse_sched_spec(v, &sched)) {
        std::printf("unknown --sched value: %s\n", v);
        return usage(argv[0]);
      }
    } else if (arg == "--sched-seed") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      sched.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--match") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (!mpism::parse_match_spec(v, &match)) {
        std::printf("unknown --match value: %s\n", v);
        return usage(argv[0]);
      }
    } else if (arg == "--engine-lock") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (!mpism::parse_engine_lock_spec(v, &engine_lock)) {
        std::printf("unknown --engine-lock value: %s\n", v);
        return usage(argv[0]);
      }
    } else if (arg == "--por") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      if (!core::parse_por_spec(v, &por)) {
        std::printf("unknown --por value: %s\n", v);
        return usage(argv[0]);
      }
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
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      trace_capacity = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--metrics") {
      print_metrics = true;
    } else if (arg == "--run-deadline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      run_deadline_seconds = std::atof(v);
    } else if (arg == "--run-max-ops") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      run_max_ops = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-wall-seconds") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      max_wall_seconds = std::atof(v);
    } else if (arg == "--retries") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      retries = std::atoi(v);
    } else if (arg == "--fault") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      fault_spec_arg = v;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      checkpoint_path = v;
    } else if (arg == "--checkpoint-interval") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      checkpoint_interval = std::strtoull(v, nullptr, 10);
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--sweep-faults") {
      sweep_faults = true;
    } else if (arg == "--sweep-budget") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      sweep_budget = std::strtoull(v, nullptr, 10);
      if (sweep_budget == 0) {
        std::printf("--sweep-budget must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (arg == "--sweep-seed") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      sweep_seed = std::strtoull(v, nullptr, 10);
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
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      workers = std::atoi(v);
      if (workers < 1) {
        std::printf("--workers must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (arg == "--dist-socket") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      dist_socket = v;
    } else if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--worker-id") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      worker_id = std::atoi(v);
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
  explorer_options.match = match;
  explorer_options.engine_lock = engine_lock;
  explorer_options.por = por;
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
    if (!cp.has_value()) {
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
    {
      mpism::RunOptions native;
      native.nprocs = explorer_options.nprocs;
      native.cost = explorer_options.cost;
      native.policy = explorer_options.policy;
      native.policy_seed = explorer_options.policy_seed;
      native.sched = explorer_options.sched;
      native.match = explorer_options.match;
      native.engine_lock = explorer_options.engine_lock;
      native.max_run_wall_seconds = explorer_options.run_deadline_seconds;
      native.max_run_vtime_us = explorer_options.max_run_vtime_us;
      native.max_ops = explorer_options.max_run_ops;
      native.cancel = explorer_options.cancel;
      mpism::Runtime runtime(std::move(native));
      result.native_vtime_us = runtime.run(it->second).vtime_us;
    }

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
    result.exploration = std::move(dist_result.exploration);
    result.instrumented_vtime_us = result.exploration.first_run_vtime_us;
    if (result.native_vtime_us > 0.0) {
      result.slowdown =
          result.instrumented_vtime_us / result.native_vtime_us;
    }
    result.comm_leaks = result.exploration.first_report.comm_leaks;
    result.request_leaks = result.exploration.first_report.request_leaks;
    for (const core::BugRecord& bug : result.exploration.bugs) {
      if (bug.kind == core::BugRecord::Kind::kDeadlock) {
        result.deadlock_found = true;
      }
      if (bug.kind == core::BugRecord::Kind::kError) result.error_found = true;
      if (bug.kind == core::BugRecord::Kind::kHang) result.hang_found = true;
    }
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

  std::printf("program                : %s (%d ranks, %s, sched %s, match "
              "%s, lock %s, por %s)\n",
              name.c_str(), procs, use_isp ? "ISP baseline" : "DAMPI",
              mpism::sched_spec(sched).c_str(), mpism::match_spec(match),
              mpism::engine_lock_spec(engine_lock).c_str(),
              core::por_spec(por));
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
