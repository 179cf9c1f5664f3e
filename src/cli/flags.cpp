#include "cli/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/line_record.hpp"
#include "mpism/fault.hpp"
#include "mpism/scheduler.hpp"
#include "obs/trace.hpp"
#include "sweep/types.hpp"

namespace dampi::cli {

namespace {

using O = Options;
using E = core::ExplorerOptions;
using S = sweep::SweepOptions;
using Result = std::optional<Refusal>;
using U64 = std::uint64_t;

constexpr bool kCoordinatorOnly = true;
constexpr int kInt = std::numeric_limits<int>::max();
constexpr U64 kU64 = std::numeric_limits<U64>::max();
constexpr double kReal = std::numeric_limits<double>::max();

/// Stores a row's value through its target: a field of Options, of its
/// ExplorerOptions, their SchedOptions or the SweepOptions, or a
/// function, which may refuse the value.
template <class C, class F, class T>
Result store(O& o, F C::*field, const T& value) {
  if constexpr (std::is_same_v<C, O>) {
    o.*field = value;
  } else if constexpr (std::is_same_v<C, E>) {
    o.explorer.*field = value;
  } else if constexpr (std::is_same_v<C, mpism::SchedOptions>) {
    o.explorer.sched.*field = value;
  } else {
    o.sweep.*field = value;
  }
  return std::nullopt;
}
template <class Fn, class T>
Result store(O& o, Fn fn, const T& value) {
  return fn(o, value);
}

template <class T>
std::string decimal(T value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

template <class Target>
Flag on(std::string_view name, Target target, std::string help,
        bool coordinator_only = false) {
  return {name, {}, std::move(help), Value::kSwitch, {}, {}, coordinator_only,
          [target](O& o, const std::string&) {
            return store(o, target, true);
          }};
}

template <class Target>
Flag text(std::string_view name, std::string_view metavar, Target target,
          std::string help, bool coordinator_only = false) {
  return {name, metavar, std::move(help), Value::kText, {}, {},
          coordinator_only,
          [target](O& o, const std::string& v) { return store(o, target, v); }};
}

/// A numeric row: the whole value, in [lo, hi] and finite, or a
/// `bad --flag value` refusal. An upper bound below the type's maximum
/// is shown in the help text.
template <class T, class Target>
Flag number(std::string_view name, std::string_view metavar, Target target,
            T lo, T hi, std::string help, bool coordinator_only = false) {
  std::string want =
      (std::is_integral_v<T> ? "an integer >= " : "a number >= ") +
      decimal(lo);
  if (hi < std::numeric_limits<T>::max()) {
    want += " and <= " + decimal(hi);
    help += " (max " + decimal(hi) + ")";
  }
  const Value value = std::is_floating_point_v<T> ? Value::kReal
                      : std::is_signed_v<T>       ? Value::kInt
                                                  : Value::kUint;
  return {name, metavar, std::move(help), value, decimal(lo),
          decimal(hi), coordinator_only,
          [name, lo, hi, target, want](O& o, const std::string& v) -> Result {
            T parsed{};
            bool ok = read_token(v, &parsed) && parsed >= lo && parsed <= hi;
            if constexpr (std::is_floating_point_v<T>) {
              ok = ok && std::isfinite(parsed);
            }
            if (ok) return store(o, target, parsed);
            return Refusal{"bad " + std::string(name) + " value '" + v +
                           "': want " + want};
          }};
}

}  // namespace

const std::vector<Flag>& flags() {
  static const std::vector<Flag> table = {
      on("--list", &O::list, "print the program names and exit"),
      text("--program", "NAME", &O::program, "the program to verify"),
      number("--procs", "N", &E::nprocs, 1, kMaxProcs,
             "ranks to simulate, default 4"),
      number("--k", "N", &E::mixing_bound, 0, kInt,
             "bounded mixing window (default: unbounded)"),
      text("--clock", "lamport|vector",
           [](O& o, const std::string& v) -> Result {
             if (v != "lamport" && v != "vector") {
               return Refusal{"unknown --clock value: " + v +
                              " (want lamport or vector)"};
             }
             o.explorer.clock_mode = v == "vector" ? core::ClockMode::kVector
                                                   : core::ClockMode::kLamport;
             return {};
           },
           "causality tracker (default lamport)"),
      number("--max-interleavings", "N", &E::max_interleavings, U64{0}, kU64,
             "exploration budget, default 4096 (per plan in a sweep)"),
      on("--deferred-sync", &E::deferred_clock_sync,
         "enable the par-of-clocks fix for the S5 pattern"),
      number("--auto-loop", "N", &E::auto_loop_threshold, 0, kInt,
             "automatic loop detection threshold"),
      text("--sched", "KIND",
           [](O& o, const std::string& v) -> Result {
             if (mpism::parse_sched_spec(v, &o.explorer.sched)) return {};
             return Refusal{"unknown --sched value: " + v, true};
           },
           "coop / coop-rr (default, or $DAMPI_SCHED),\n"
           "coop-random, coop-priority (fibers) or thread"),
      number("--sched-seed", "N", &mpism::SchedOptions::seed, U64{0}, kU64,
             "seed for coop-random / coop-priority picks"),
      on("--isp", &O::isp, "use the centralized ISP baseline instead"),
      text("--save-repro", "FILE", &O::save_repro,
           "write the first bug's epoch-decisions file", kCoordinatorOnly),
      text("--replay", "FILE", &O::replay,
           "run once under a saved epoch-decisions file"),
      text("--trace", "FILE", &O::trace,
           "write a Chrome trace_event JSON of the run"),
      number("--trace-capacity", "N", &O::trace_capacity, std::size_t{0},
             obs::kMaxTraceCapacity, "events kept per lane, default 16384"),
      on("--metrics", &O::metrics, "print the metrics registry after the run",
         kCoordinatorOnly),
      number("--run-deadline", "SEC", &E::run_deadline_seconds, 0.0, kReal,
             "per-run wall watchdog; expiry is a HANG bug"),
      number("--run-max-ops", "N", &E::max_run_ops, U64{0}, kU64,
             "per-run watchdog on executed MPI operations"),
      number("--max-wall-seconds", "S", &O::max_wall_seconds, 0.0, kReal,
             "global budget, 0 = none (per plan in a sweep);\n"
             "cancels even an in-flight run"),
      number("--retries", "N", &E::max_retries, 0, kInt,
             "re-run failed replays N times before quarantining"),
      text("--fault", "SPEC", &O::fault,
           "inject faults: abort@R:OP, error@R:OP,\n"
           "delay@R:OP:US, flaky@R:OP:N, comma-separated\n"
           "(op indices 1-based)"),
      text("--checkpoint", "FILE", &E::checkpoint_path,
           "journal the DFS frontier to FILE for --resume"),
      number("--checkpoint-interval", "N", &E::checkpoint_interval, U64{1},
             kU64, "journal every N interleavings (default 64)"),
      on("--resume", &O::resume,
         "continue from --checkpoint FILE (options must\n"
         "match; a FILE.wN shard journal is refused) or,\n"
         "with --sweep-faults, from --sweep-journal",
         kCoordinatorOnly),
      on("--sweep-faults", &O::sweep_faults,
         "run one bounded campaign per single-point fault\n"
         "plan over the program's op inventory"),
      number("--sweep-budget", "N", &S::budget, U64{1}, kU64,
             "max plans (default 64; abort/error ones first)"),
      number("--sweep-seed", "N", &S::seed, U64{0}, kU64,
             "seeds the delay/flaky sampler (default 1)"),
      text("--sweep-kinds", "SPEC",
           [](O& o, const std::string& v) -> Result {
             std::string error;
             if (sweep::parse_sweep_kinds(v, &o.sweep.kinds, &error)) return {};
             return Refusal{"bad --sweep-kinds: " + error, true};
           },
           "fault families, e.g. abort,delay (default all)"),
      text("--sweep-report", "FILE", &O::sweep_report,
           "write the JSON report (byte-identical at any\n"
           "--workers and across --resume)"),
      text("--sweep-journal", "FILE", &S::journal_path,
           "journal completed plans for --resume"),
      number("--workers", "N", &O::workers, 1, kMaxWorkers,
             "shard the campaign (or a sweep's plans) across\n"
             "N worker processes, same results",
             kCoordinatorOnly),
      on("--worker", &O::worker,
         "run as a worker (set by the coordinator)"),
      number("--worker-id", "N", &O::worker_id, 0, kInt,
             "this worker's id within the campaign"),
      text("--coordinator-socket", "fd:N", &O::coordinator_socket,
           "the worker's inherited socketpair end"),
  };
  return table;
}

namespace {

/// The checks that need the whole line; they also parse --fault.
Result check_modes(Options& o) {
  if (!o.fault.empty()) {
    std::string error;
    o.explorer.fault = mpism::parse_fault_plan(o.fault, &error);
    if (!o.explorer.fault) return Refusal{"bad --fault spec: " + error, true};
    // A point aimed at a rank this campaign does not simulate would sit
    // silently unreachable for the whole run.
    error = mpism::validate_fault_plan(*o.explorer.fault, o.explorer.nprocs);
    if (!error.empty()) return Refusal{"bad --fault spec: " + error};
  }
  if (o.worker && o.coordinator_socket.empty()) {
    return Refusal{"--worker requires --coordinator-socket", true};
  }
  if (o.sweep_faults) {
    // The sweep owns fault injection, campaign scheduling and its own
    // journal; modes that would fight over those are refused. A
    // --worker runs the plans a sweep's coordinator sends it.
    const std::pair<bool, std::string> conflicts[] = {
        {!o.save_repro.empty(), "--save-repro"},
        {!o.explorer.checkpoint_path.empty(), "--checkpoint"},
        {!o.replay.empty(), "--replay"},
        {o.isp, "--isp"},
        {!o.fault.empty(), "--fault"}};
    for (const auto& [set, flag] : conflicts) {
      if (set) {
        return Refusal{"--sweep-faults cannot be combined with " + flag, true};
      }
    }
    if (o.resume && o.sweep.journal_path.empty()) {
      return Refusal{"--resume in sweep mode requires --sweep-journal FILE",
                     true};
    }
  } else if (o.resume && !o.worker && o.explorer.checkpoint_path.empty()) {
    return Refusal{"--resume requires --checkpoint FILE", true};
  } else if (o.workers > 0 && o.isp && o.replay.empty()) {
    // A replay runs once in process and ignores both.
    return Refusal{"--workers is not supported with --isp", true};
  }
  return std::nullopt;
}

}  // namespace

std::optional<Refusal> parse(const std::vector<std::string>& args,
                             Options* out) {
  Options& o = *out;
  o.explorer.nprocs = 4;
  o.explorer.max_interleavings = 4096;
  for (std::size_t i = 0; i < args.size() && !o.list; ++i) {
    const auto flag =
        std::find_if(flags().begin(), flags().end(),
                     [&](const Flag& row) { return row.name == args[i]; });
    if (flag == flags().end()) {
      return Refusal{"unknown option: " + args[i], true};
    }
    const auto first = args.begin() + static_cast<std::ptrdiff_t>(i);
    std::string value;
    if (flag->value != Value::kSwitch) {
      if (++i == args.size()) {
        return Refusal{std::string(flag->name) + " needs a value", true};
      }
      value = args[i];
    }
    if (Result refusal = flag->read(o, value)) return refusal;
    if (!flag->coordinator_only) {
      o.worker_args.insert(o.worker_args.end(), first,
                           args.begin() + static_cast<std::ptrdiff_t>(i + 1));
    }
  }
  if (o.list) return std::nullopt;
  // The fields that mirror another row's.
  o.explorer.checkpoint_tag = o.sweep.program_name = o.program;
  o.sweep.plan_max_interleavings = o.explorer.max_interleavings;
  if (o.max_wall_seconds > 0) {
    o.explorer.max_wall_seconds = o.sweep.plan_wall_seconds =
        o.max_wall_seconds;
  }
  o.sweep.workers = std::max(o.workers, 1);
  o.sweep.resume = o.resume;
  return check_modes(o);
}

std::string usage(std::string_view argv0) {
  constexpr std::size_t kHelpColumn = 25;
  const std::string prog(argv0);
  std::string out = "usage: " + prog + " --program <name> [options]\n" +
                    "       " + prog + " --list\n";
  const std::pair<std::string_view, std::string_view> kSections[] = {
      {"--list", "options"},
      {"--run-deadline", "resilience options"},
      {"--sweep-faults", "fault-sweep options"},
      {"--workers", "distributed options"}};
  for (const Flag& flag : flags()) {
    for (const auto& [first, heading] : kSections) {
      if (flag.name == first) out.append(heading).append(":\n");
    }
    std::string line = "  " + std::string(flag.name);
    if (!flag.metavar.empty()) line.append(" ").append(flag.metavar);
    line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
    for (const char c : flag.help) {
      line += c;
      if (c == '\n') line.append(kHelpColumn, ' ');
    }
    out.append(line).append("\n");
  }
  return out +
         "exit codes: 0 clean, 1 bug(s) found, 2 budget exhausted / "
         "interrupted /\n"
         "            quarantined subtrees, 3 usage or internal error\n";
}

}  // namespace dampi::cli
