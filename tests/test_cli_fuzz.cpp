// Mutated tier-1 verify_cli command lines (dropped, duplicated and
// swapped tokens, extreme values, control characters, stray flags) either
// parse or are refused with a diagnostic, never a throw; what parses stays
// inside the table's bounds, and its worker argv reproduces its options.
// Only the parser runs here: no program, process or thread is started.
#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "obs/trace.hpp"

namespace dampi::test {
namespace {

using Args = std::vector<std::string>;

// Tier-1's verify_cli command lines, without the binary.
const std::vector<Args> kTier1Lines = {
    {"--program", "fig3-benign", "--procs", "3"},
    {"--program", "fig3", "--procs", "3", "--max-interleavings", "1"},
    {"--program", "fig3-benign", "--procs", "3", "--replay", "bad.txt"},
    {"--program", "matmult", "--procs", "4", "--checkpoint", "bad.ckpt",
     "--resume"},
    {"--program", "livelock", "--procs", "2", "--sched", "coop", "--jobs",
     "4", "--run-deadline", "2", "--max-interleavings", "4"},
    {"--program", "matmult", "--procs", "4", "--sched", "coop",
     "--max-interleavings", "150", "--checkpoint", "r.ckpt",
     "--checkpoint-interval", "5"},
    {"--program", "dist-fanout", "--procs", "6", "--sched", "coop",
     "--max-interleavings", "100000", "--workers", "2", "--checkpoint",
     "d.ckpt"},
    {"--program", "matmult", "--procs", "4", "--jobs", "4",
     "--max-interleavings", "200", "--trace", "t.json"},
    {"--program", "wildcard-deadlock", "--procs", "3", "--sched", "coop",
     "--sweep-faults", "--sweep-kinds", "delay", "--sweep-budget", "6",
     "--max-interleavings", "32"},
    {"--program", "fig3-benign", "--procs", "3", "--sweep-faults", "--fault",
     "abort@0:1"},
    {"--program", "matmult", "--procs", "4", "--sched", "coop",
     "--sweep-faults", "--sweep-kinds", "delay", "--sweep-budget", "8",
     "--max-interleavings", "1024", "--sweep-journal", "s.journal",
     "--resume", "--sweep-report", "s.json"},
    {"--program", "fig3-benign", "--clock", "bogus", "--k", "-3"},
};

const char* const kExtremes[] = {
    "-1", "0", "1", "-0", "2147483648", "4294967296", "9223372036854775809",
    "18446744073709551616", "300000000", "1e309", "-1e309", "nan", "inf",
    "", " ", "1.5", "0x7f", "--", "fd:", "abort@", ",", "@1:1"};

void mutate(Rng& rng, Args* args) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  const auto at = [&](std::size_t i) {
    return args->begin() + static_cast<std::ptrdiff_t>(i);
  };
  const std::size_t n = args->size();
  switch (rng.next_below(6)) {
    case 0:  // drop a token
      if (n > 0) args->erase(at(pick(n)));
      break;
    case 1:  // duplicate one
      if (n > 0) {
        const std::size_t i = pick(n);
        args->insert(at(i), (*args)[i]);
      }
      break;
    case 2:  // swap two
      if (n > 1) std::swap((*args)[pick(n)], (*args)[pick(n)]);
      break;
    case 3:  // an extreme value in place of a token
      if (n > 0) {
        (*args)[pick(n)] = kExtremes[pick(std::size(kExtremes))];
      }
      break;
    case 4: {  // a control character inside a token
      if (n == 0) break;
      std::string& token = (*args)[pick(n)];
      const char controls[] = {'\x01', '\t', '\n', '\r', '\x7f', '\x1b'};
      token.insert(pick(token.size() + 1), 1, controls[pick(6)]);
      break;
    }
    default: {  // a table flag dropped in anywhere
      const auto& rows = cli::flags();
      args->insert(at(pick(n + 1)), std::string(rows[pick(rows.size())].name));
      break;
    }
  }
}

TEST(CliFuzz, MutantArgvParsesOrRefusesAndNeverThrows) {
  constexpr int kMutantsPerLine = 4000;
  Rng rng(0xc11);
  int accepted = 0;
  int refused = 0;
  for (const Args& line : kTier1Lines) {
    for (int i = 0; i < kMutantsPerLine; ++i) {
      Args mutant = line;
      for (int m = 1 + static_cast<int>(rng.next_below(3)); m > 0; --m) {
        mutate(rng, &mutant);
      }
      cli::Options o;
      std::optional<cli::Refusal> refusal;
      try {
        refusal = cli::parse(mutant, &o);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "threw " << e.what();
        continue;
      }
      if (refusal) {
        ++refused;
        EXPECT_FALSE(refusal->message.empty());
        continue;
      }
      ++accepted;
      if (o.list) continue;
      ASSERT_GE(o.explorer.nprocs, 1);
      ASSERT_LE(o.explorer.nprocs, cli::kMaxProcs);
      ASSERT_LE(o.workers, cli::kMaxWorkers);
      ASSERT_LE(o.trace_capacity, obs::kMaxTraceCapacity);
      // What a coordinator accepts, its workers (argv plus the flags the
      // coordinator appends) accept with the same fingerprint.
      if (o.workers > 0 && !o.sweep_faults && !o.worker && o.replay.empty() &&
          !o.isp) {
        Args worker = o.worker_args;
        worker.insert(worker.end(), {"--worker", "--worker-id", "1",
                                     "--coordinator-socket", "fd:3"});
        cli::Options child;
        const auto child_refusal = cli::parse(worker, &child);
        ASSERT_FALSE(child_refusal) << child_refusal->message;
        EXPECT_EQ(core::options_fingerprint(child.explorer),
                  core::options_fingerprint(o.explorer));
      }
    }
  }
  std::printf("cli: %d accepted, %d refused\n", accepted, refused);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace dampi::test
