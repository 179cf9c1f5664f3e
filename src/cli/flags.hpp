// verify_cli's command line as one table: each flag is a row holding its
// name, metavar, help text, a checked reader that writes straight into
// Options, and whether it stays with the campaign coordinator. Parsing,
// the mode-conflict checks, the usage text and the argv handed to
// `--workers` processes are generic code over that table.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "sweep/sweep.hpp"

namespace dampi::cli {

/// Upper bounds of the flags that size what a run allocates or spawns:
/// 1024 ranks is the paper's largest run, and every --workers slot is a
/// process and a socketpair, forked up front.
constexpr int kMaxProcs = 4096;
constexpr int kMaxWorkers = 256;

/// Everything a command line sets. Fields other modes read as well are
/// mirrored by parse(): the program name into the checkpoint tag and the
/// sweep, and --max-interleavings, --max-wall-seconds, --workers and
/// --resume into the sweep's per-plan budgets, workers and resume.
struct Options {
  bool list = false;
  std::string program;
  core::ExplorerOptions explorer;
  std::string fault;  ///< parsed into explorer.fault once --procs is known
  double max_wall_seconds = 0;  ///< 0 = the explorer's and sweep's default
  bool isp = false;
  std::string save_repro;
  std::string replay;
  std::string trace;
  std::size_t trace_capacity = 0;  ///< 0 = the tracer's default
  bool metrics = false;
  bool resume = false;
  bool sweep_faults = false;
  sweep::SweepOptions sweep;  ///< explorer and cancel are set at dispatch
  std::string sweep_report;
  int workers = 0;  ///< 0 = in-process exploration
  bool worker = false;
  int worker_id = 0;
  std::string coordinator_socket;
  /// The parsed args minus the coordinator-only flags and their values:
  /// what each `--workers` process re-parses.
  std::vector<std::string> worker_args;
};

/// A refused command line (exit 3): a one-line diagnostic, followed by
/// the usage text when `usage` is set.
struct Refusal {
  std::string message;
  bool usage = false;
};

/// What a row's value is: none, free text, or a number of a given type.
enum class Value { kSwitch, kText, kInt, kUint, kReal };

struct Flag {
  std::string_view name;     ///< "--procs"
  std::string_view metavar;  ///< "N"; empty for a switch
  std::string help;          ///< '\n' continues it on the next line
  Value value = Value::kSwitch;
  std::string lo, hi;  ///< numeric rows: the inclusive range, in decimal
  bool coordinator_only = false;  ///< left out of worker argvs
  /// Stores `value` (empty for a switch) into the options, or refuses it.
  std::function<std::optional<Refusal>(Options&, const std::string&)> read;
};

/// Every flag, in usage order.
const std::vector<Flag>& flags();

/// Parses `args` (argv without the program name) into *out, a fresh
/// Options, over the CLI's defaults: 4 ranks, 4096 interleavings.
/// `--list` ends the parse; otherwise each value is checked against its
/// row, then `--fault` against `--procs`, then the mode conflicts.
std::optional<Refusal> parse(const std::vector<std::string>& args,
                             Options* out);

/// The usage text: every row with its help and upper bound.
std::string usage(std::string_view argv0);

}  // namespace dampi::cli
