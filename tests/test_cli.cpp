// verify_cli's flag table (src/cli/flags.*): every row parses into its
// field, every numeric row refuses what is outside its bounds or not a
// whole number, the mode conflicts are refused, and the argv handed to
// `--workers` processes reproduces the coordinator's options. Only the
// parser runs here: no program, process or thread is started.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "core/checkpoint.hpp"
#include "mpism/fault.hpp"
#include "obs/trace.hpp"

namespace dampi::test {
namespace {

using Args = std::vector<std::string>;

struct Parsed {
  cli::Options options;
  std::optional<cli::Refusal> refusal;
};

Parsed parse(const Args& args) {
  Parsed parsed;
  parsed.refusal = cli::parse(args, &parsed.options);
  return parsed;
}

std::string refusal_of(const Args& args) {
  const Parsed parsed = parse(args);
  return parsed.refusal ? parsed.refusal->message : "";
}

struct RowCase {
  Args args;  ///< args[0] names the row
  std::function<bool(const cli::Options&)> holds;
};

TEST(Cli, EveryRowParsesIntoItsField) {
  using O = cli::Options;
  const std::vector<RowCase> cases = {
      {{"--list"}, [](const O& o) { return o.list; }},
      {{"--program", "fig3"},
       [](const O& o) {
         return o.program == "fig3" && o.explorer.checkpoint_tag == "fig3" &&
                o.sweep.program_name == "fig3";
       }},
      {{"--procs", "17"}, [](const O& o) { return o.explorer.nprocs == 17; }},
      {{"--k", "3"}, [](const O& o) { return o.explorer.mixing_bound == 3; }},
      {{"--clock", "vector"},
       [](const O& o) {
         return o.explorer.clock_mode == core::ClockMode::kVector;
       }},
      {{"--max-interleavings", "77"},
       [](const O& o) {
         return o.explorer.max_interleavings == 77 &&
                o.sweep.plan_max_interleavings == 77;
       }},
      {{"--deferred-sync"},
       [](const O& o) { return o.explorer.deferred_clock_sync; }},
      {{"--auto-loop", "5"},
       [](const O& o) { return o.explorer.auto_loop_threshold == 5; }},
      {{"--sched", "coop-priority"},
       [](const O& o) {
         return o.explorer.sched.kind == mpism::SchedulerKind::kCoop &&
                o.explorer.sched.pick == mpism::SchedPolicy::kPriority;
       }},
      {{"--sched-seed", "99"},
       [](const O& o) { return o.explorer.sched.seed == 99; }},
      {{"--isp"}, [](const O& o) { return o.isp; }},
      {{"--save-repro", "r.txt"},
       [](const O& o) { return o.save_repro == "r.txt"; }},
      {{"--replay", "d.txt"}, [](const O& o) { return o.replay == "d.txt"; }},
      {{"--trace", "t.json"}, [](const O& o) { return o.trace == "t.json"; }},
      {{"--trace-capacity", "4096"},
       [](const O& o) { return o.trace_capacity == 4096; }},
      {{"--metrics"}, [](const O& o) { return o.metrics; }},
      {{"--run-deadline", "2.5"},
       [](const O& o) { return o.explorer.run_deadline_seconds == 2.5; }},
      {{"--run-max-ops", "1000"},
       [](const O& o) { return o.explorer.max_run_ops == 1000; }},
      {{"--max-wall-seconds", "30"},
       [](const O& o) {
         return o.explorer.max_wall_seconds == 30.0 &&
                o.sweep.plan_wall_seconds == 30.0;
       }},
      {{"--retries", "4"},
       [](const O& o) { return o.explorer.max_retries == 4; }},
      {{"--fault", "abort@1:3"},
       [](const O& o) {
         return o.explorer.fault &&
                mpism::fault_spec(*o.explorer.fault) == "abort@1:3";
       }},
      {{"--checkpoint", "c.ckpt"},
       [](const O& o) { return o.explorer.checkpoint_path == "c.ckpt"; }},
      {{"--checkpoint-interval", "9"},
       [](const O& o) { return o.explorer.checkpoint_interval == 9; }},
      {{"--resume", "--checkpoint", "c.ckpt"},
       [](const O& o) { return o.resume && o.sweep.resume; }},
      {{"--sweep-faults"}, [](const O& o) { return o.sweep_faults; }},
      {{"--sweep-budget", "12"},
       [](const O& o) { return o.sweep.budget == 12; }},
      {{"--sweep-seed", "5"}, [](const O& o) { return o.sweep.seed == 5; }},
      {{"--sweep-kinds", "delay"},
       [](const O& o) {
         return sweep::sweep_kinds_spec(o.sweep.kinds) == "delay";
       }},
      {{"--sweep-report", "r.json"},
       [](const O& o) { return o.sweep_report == "r.json"; }},
      {{"--sweep-journal", "s.journal"},
       [](const O& o) { return o.sweep.journal_path == "s.journal"; }},
      {{"--workers", "8"},
       [](const O& o) { return o.workers == 8 && o.sweep.workers == 8; }},
      {{"--worker", "--coordinator-socket", "fd:3"},
       [](const O& o) { return o.worker; }},
      {{"--worker-id", "6"}, [](const O& o) { return o.worker_id == 6; }},
      {{"--coordinator-socket", "fd:9"},
       [](const O& o) { return o.coordinator_socket == "fd:9"; }},
  };
  std::set<std::string> covered;
  for (const RowCase& c : cases) {
    const Parsed parsed = parse(c.args);
    ASSERT_FALSE(parsed.refusal) << c.args[0] << ": "
                                 << parsed.refusal->message;
    EXPECT_TRUE(c.holds(parsed.options)) << c.args[0];
    covered.insert(c.args[0]);
  }
  std::set<std::string> rows;
  for (const cli::Flag& flag : cli::flags()) {
    rows.insert(std::string(flag.name));
  }
  EXPECT_EQ(covered, rows);
  EXPECT_EQ(rows.size(), 34u);
}

TEST(Cli, DefaultsAndResets) {
  const cli::Options defaults = parse({}).options;
  EXPECT_EQ(defaults.explorer.nprocs, 4);
  EXPECT_EQ(defaults.explorer.max_interleavings, 4096u);
  EXPECT_EQ(defaults.sweep.plan_max_interleavings, 4096u);
  EXPECT_EQ(defaults.explorer.checkpoint_interval, 64u);
  EXPECT_EQ(defaults.sweep.workers, 1);
  EXPECT_EQ(defaults.workers, 0);
  EXPECT_FALSE(defaults.explorer.mixing_bound.has_value());

  // 0 seconds means unlimited, as if the flag were absent; an empty
  // --fault means no fault plan.
  const cli::Options reset =
      parse({"--max-wall-seconds", "5", "--max-wall-seconds", "0", "--fault",
             "abort@0:1", "--fault", ""})
          .options;
  EXPECT_EQ(reset.explorer.max_wall_seconds,
            defaults.explorer.max_wall_seconds);
  EXPECT_EQ(reset.sweep.plan_wall_seconds, defaults.sweep.plan_wall_seconds);
  EXPECT_EQ(reset.explorer.fault, nullptr);
}

/// `text` plus `delta`, for integer texts up to 2^64.
std::string shifted(const std::string& text, int delta) {
  __int128 value = 0;
  const bool negative = text[0] == '-';
  for (std::size_t i = negative ? 1 : 0; i < text.size(); ++i) {
    value = value * 10 + (text[i] - '0');
  }
  value = (negative ? -value : value) + delta;
  std::string out;
  const bool below_zero = value < 0;
  if (below_zero) value = -value;
  do {
    out.insert(out.begin(), static_cast<char>('0' + value % 10));
    value /= 10;
  } while (value > 0);
  return below_zero ? "-" + out : out;
}

TEST(Cli, EveryNumericRowRefusesWhatIsOutsideItsBounds) {
  int numeric = 0;
  for (const cli::Flag& flag : cli::flags()) {
    if (flag.value == cli::Value::kSwitch || flag.value == cli::Value::kText) {
      continue;
    }
    ++numeric;
    const std::string name(flag.name);
    const bool real = flag.value == cli::Value::kReal;
    // Both bounds are accepted.
    for (const std::string& v : {flag.lo, flag.hi}) {
      EXPECT_EQ(refusal_of({name, v}), "") << name << " " << v;
    }
    const Parsed missing = parse({name});
    ASSERT_TRUE(missing.refusal) << name;
    EXPECT_EQ(missing.refusal->message, name + " needs a value");
    EXPECT_TRUE(missing.refusal->usage);

    std::vector<std::string> bad = {
        real ? "-1" : shifted(flag.lo, -1),
        real ? "1e309" : shifted(flag.hi, +1),
        "+" + flag.lo, flag.lo + "x", flag.lo + " ", " " + flag.lo,
        "", "abc", "nan", "inf", "-inf", "infinity", "0x10"};
    if (flag.value == cli::Value::kUint) bad.push_back("-0");
    if (!real) bad.push_back(flag.lo + ".5");
    for (const std::string& v : bad) {
      const Parsed parsed = parse({name, v});
      ASSERT_TRUE(parsed.refusal) << name << " '" << v << "'";
      EXPECT_EQ(parsed.refusal->message.rfind("bad " + name + " value '" + v +
                                                  "': want ",
                                              0),
                0u)
          << parsed.refusal->message;
      EXPECT_FALSE(parsed.refusal->usage) << name;
    }
  }
  EXPECT_EQ(numeric, 15);
}

TEST(Cli, SizingFlagsAreBounded) {
  EXPECT_EQ(refusal_of({"--procs", std::to_string(cli::kMaxProcs)}), "");
  EXPECT_EQ(refusal_of({"--procs", "300000000"}),
            "bad --procs value '300000000': want an integer >= 1 and <= " +
                std::to_string(cli::kMaxProcs));
  EXPECT_EQ(refusal_of({"--workers", std::to_string(cli::kMaxWorkers)}), "");
  EXPECT_EQ(refusal_of({"--workers", "100000"}),
            "bad --workers value '100000': want an integer >= 1 and <= " +
                std::to_string(cli::kMaxWorkers));
  EXPECT_EQ(refusal_of({"--trace-capacity", "9223372036854775809"}),
            "bad --trace-capacity value '9223372036854775809': want an "
            "integer >= 0 and <= " +
                std::to_string(obs::kMaxTraceCapacity));
  EXPECT_GE(cli::kMaxProcs, 1024);
}

TEST(Cli, ModeConflictsAreRefused) {
  const struct {
    Args args;
    std::string message;
  } refused[] = {
      {{"--sweep-faults", "--fault", "abort@0:1"},
       "--sweep-faults cannot be combined with --fault"},
      {{"--sweep-faults", "--isp"},
       "--sweep-faults cannot be combined with --isp"},
      {{"--sweep-faults", "--replay", "d.txt"},
       "--sweep-faults cannot be combined with --replay"},
      {{"--sweep-faults", "--worker", "--coordinator-socket", "fd:3"},
       "--sweep-faults cannot be combined with --worker"},
      {{"--sweep-faults", "--checkpoint", "c.ckpt"},
       "--sweep-faults cannot be combined with --checkpoint"},
      {{"--sweep-faults", "--save-repro", "r.txt"},
       "--sweep-faults cannot be combined with --save-repro"},
      {{"--sweep-faults", "--isp", "--save-repro", "r.txt"},
       "--sweep-faults cannot be combined with --save-repro"},
      {{"--sweep-faults", "--resume"},
       "--resume in sweep mode requires --sweep-journal FILE"},
      {{"--worker"}, "--worker requires --coordinator-socket"},
      {{"--resume"}, "--resume requires --checkpoint FILE"},
      {{"--workers", "2", "--isp"}, "--workers is not supported with --isp"},
      {{"--procs", "3", "--fault", "abort@5:1"},
       "bad --fault spec: fault point 'abort@5:1': rank 5 out of range for 3 "
       "ranks (valid ranks: 0..2)"},
      {{"--fault", "bogus"},
       "bad --fault spec: fault point 'bogus': missing '@'"},
      {{"--clock", "bogus"},
       "unknown --clock value: bogus (want lamport or vector)"},
      {{"--sched", "bogus"}, "unknown --sched value: bogus"},
      {{"--match", "linear"}, "unknown option: --match"},
      {{"--jobs", "2"}, "unknown option: --jobs"},
  };
  for (const auto& c : refused) {
    EXPECT_EQ(refusal_of(c.args), c.message);
  }
  const Args accepted[] = {
      {"--sweep-faults", "--resume", "--sweep-journal", "s.journal"},
      {"--worker", "--resume", "--coordinator-socket", "fd:3"},
      {"--resume", "--checkpoint", "c.ckpt"},
      {"--workers", "2", "--isp", "--replay", "d.txt"},
      {"--fault", "abort@5:1", "--procs", "6"},
      {"--list", "--bogus"},
  };
  for (const Args& args : accepted) {
    EXPECT_EQ(refusal_of(args), "") << args[0];
  }
}

/// The worker flags run_distributed appends to each worker's argv.
Args as_worker(Args args) {
  args.insert(args.end(), {"--worker", "--worker-id", "1",
                           "--coordinator-socket", "fd:3"});
  return args;
}

TEST(Cli, WorkerArgvReproducesTheCoordinatorsOptions) {
  // Every flag allowed with --workers.
  const Args coordinator = {
      "--program", "fig3", "--procs", "3", "--k", "2", "--clock", "vector",
      "--max-interleavings", "50", "--deferred-sync", "--auto-loop", "3",
      "--sched", "coop-random", "--sched-seed", "7",
      "--save-repro", "r.txt", "--trace", "t.json", "--trace-capacity",
      "1024", "--metrics", "--run-deadline", "5", "--run-max-ops", "100000",
      "--max-wall-seconds", "60", "--retries", "1", "--fault",
      "delay@1:1:10", "--checkpoint", "c.ckpt", "--checkpoint-interval", "2",
      "--resume", "--sweep-budget", "9", "--sweep-seed", "4",
      "--sweep-kinds", "delay", "--sweep-report", "r.json",
      "--sweep-journal", "s.journal", "--workers", "4"};
  const Parsed parent = parse(coordinator);
  ASSERT_FALSE(parent.refusal) << parent.refusal->message;

  const Args worker = parent.options.worker_args;
  Args expected = coordinator;
  for (const char* gone : {"--save-repro", "--trace", "--trace-capacity",
                           "--workers"}) {
    const auto at = std::find(expected.begin(), expected.end(), gone);
    ASSERT_NE(at, expected.end());
    expected.erase(at, at + 2);
  }
  for (const char* gone : {"--metrics", "--resume"}) {
    expected.erase(std::find(expected.begin(), expected.end(), gone));
  }
  EXPECT_EQ(worker, expected);

  const Parsed child = parse(as_worker(worker));
  ASSERT_FALSE(child.refusal) << child.refusal->message;
  EXPECT_TRUE(child.options.worker);
  EXPECT_EQ(core::options_fingerprint(child.options.explorer),
            core::options_fingerprint(parent.options.explorer));
  EXPECT_EQ(child.options.explorer.max_interleavings,
            parent.options.explorer.max_interleavings);
  EXPECT_EQ(child.options.explorer.checkpoint_path,
            parent.options.explorer.checkpoint_path);
}

TEST(Cli, AllFlagsFingerprintIsTheRecordedOne) {
  // Recorded from the `options` line of the checkpoint verify_cli wrote
  // for this command line before the flags became a table.
  const Parsed parsed = parse(
      {"--program", "fig3", "--procs", "3", "--k", "2", "--clock", "vector",
       "--max-interleavings", "5", "--deferred-sync", "--auto-loop", "3",
       "--sched", "coop-random", "--sched-seed", "7",
       "--run-deadline", "5", "--run-max-ops", "100000",
       "--max-wall-seconds", "60", "--retries", "1", "--fault",
       "delay@1:1:10", "--checkpoint", "fp.ckpt", "--checkpoint-interval",
       "2"});
  ASSERT_FALSE(parsed.refusal) << parsed.refusal->message;
  EXPECT_EQ(core::options_fingerprint(parsed.options.explorer),
            "nprocs=3 clock=1 transport=0 mix=2 loopabs=1 unsafe=1 "
            "autoloop=3 defsync=1 sched=coop-random schedseed=7 por=sleep "
            "policy=0 pseed=1 init=14650fb0739d0383 fault=delay@1:1:10 "
            "tag=fig3");
}

TEST(Cli, UsageNamesEveryFlagWithItsHelp) {
  const std::string text = cli::usage("verify_cli");
  for (const cli::Flag& flag : cli::flags()) {
    EXPECT_NE(text.find("  " + std::string(flag.name) + " "), std::string::npos)
        << flag.name;
    // The first words of the help, before any wrap.
    const std::string opening = flag.help.substr(0, 12);
    EXPECT_NE(text.find(opening), std::string::npos) << flag.name;
  }
  EXPECT_NE(text.find("(max 4096)"), std::string::npos);
  EXPECT_NE(text.find("3 usage or internal error"), std::string::npos);
}

}  // namespace
}  // namespace dampi::test
