// Every line-oriented format the verifier reads back — epoch-decision
// files, checkpoints, sweep journals and the DMP1 hello, shard, plan
// (one plan and a batch of them), result and plan-result payloads —
// pinned by a golden text (tests/golden/, recorded from the
// serializers) and mutation-fuzzed from it with a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "common/line_record.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/decision_io.hpp"
#include "core/options.hpp"
#include "dist/protocol.hpp"
#include "mpism/scheduler.hpp"
#include "sweep/journal.hpp"

namespace dampi::test {
namespace {

/// The options fingerprint every golden text was written under.
const std::string kFingerprint =
    "nprocs=4 clock=0 transport=0 mix=none loopabs=1 unsafe=1 autoloop=0 "
    "defsync=0 sched=coop-rr schedseed=1 por=sleep policy=0 pseed=1 "
    "init=14650fb0739d0383 fault=none";

/// Parses `text` and serializes what was parsed: the text's canonical
/// form, or nullopt with *error set.
using Reserialize = std::optional<std::string> (*)(const std::string& text,
                                                   std::string* error);

template <class T, class Serialize>
std::optional<std::string> then(const std::optional<T>& parsed,
                                Serialize serialize) {
  if (!parsed.has_value()) return std::nullopt;
  return serialize(*parsed);
}

struct Format {
  const char* golden;  ///< file under tests/golden/
  Reserialize reserialize;
};

const Format kFormats[] = {
    {"decisions.txt",
     [](const std::string& text, std::string* error) {
       return then(core::parse_schedule(text, error),
                   core::serialize_schedule);
     }},
    {"checkpoint.txt",
     [](const std::string& text, std::string* error) {
       return then(core::parse_checkpoint(text, kFingerprint, error),
                   core::serialize_checkpoint);
     }},
    {"sweep_journal.txt",
     [](const std::string& text, std::string* error) {
       return then(sweep::parse_sweep_journal(text, "", error),
                   sweep::serialize_sweep_journal);
     }},
    {"dmp1_hello.txt",
     [](const std::string& text, std::string* error) {
       return then(dist::parse_hello(text, error), dist::serialize_hello);
     }},
    {"dmp1_shard.txt",
     [](const std::string& text, std::string* error) {
       std::uint64_t id = 0;
       return then(dist::parse_shard(text, kFingerprint, &id, error),
                   [&id](const core::Checkpoint& cp) {
                     return dist::serialize_shard(
                         id, core::serialize_checkpoint(cp));
                   });
     }},
    {"dmp1_plan.txt",
     [](const std::string& text, std::string* error) {
       return then(dist::parse_plan(text, error), dist::serialize_plan);
     }},
    {"dmp1_plan_batch.txt",
     [](const std::string& text, std::string* error) {
       return then(dist::parse_plan(text, error), dist::serialize_plan);
     }},
    {"dmp1_plan_result.txt",
     [](const std::string& text, std::string* error) {
       // The embedded journal is read too, as the sweep coordinator
       // reads it.
       auto result = dist::parse_plan_result(text, error);
       if (!result.has_value()) return std::optional<std::string>();
       const auto journal = sweep::parse_sweep_journal(result->journal, "",
                                                       error);
       if (!journal.has_value()) return std::optional<std::string>();
       result->journal = sweep::serialize_sweep_journal(*journal);
       return std::optional<std::string>(dist::serialize_plan_result(*result));
     }},
    {"dmp1_result.txt",
     [](const std::string& text, std::string* error) {
       return then(dist::parse_worker_result(text, kFingerprint, error),
                   [](const dist::WorkerResult& result) {
                     return dist::serialize_worker_result(result,
                                                          kFingerprint);
                   });
     }},
};

std::string golden(const Format& format) {
  std::string error;
  const auto text =
      read_file(std::string(DAMPI_GOLDEN_DIR) + "/" + format.golden, &error);
  EXPECT_TRUE(text.has_value()) << error;
  return text.value_or("");
}

TEST(Formats, GoldenTextsRoundTripByteForByte) {
  for (const Format& format : kFormats) {
    const std::string text = golden(format);
    ASSERT_FALSE(text.empty()) << format.golden;
    std::string error;
    const auto again = format.reserialize(text, &error);
    ASSERT_TRUE(again.has_value()) << format.golden << ": " << error;
    EXPECT_EQ(*again, text) << format.golden;
  }
}

// The golden texts carry this fingerprint, so the options that write it
// must still compute it: nprocs 4 on the coop round-robin scheduler,
// everything else at its default.
TEST(Formats, GoldenFingerprintIsTheComputedOne) {
  core::ExplorerOptions options;
  options.nprocs = 4;
  options.sched = mpism::SchedOptions{};
  EXPECT_EQ(core::options_fingerprint(options), kFingerprint);
}

/// One mutation of `text`: a byte flip, a deletion, a truncation, or a
/// digit run replaced by -1, 2^62, a 20-digit number or nothing.
void mutate(Rng& rng, std::string* text) {
  if (text->empty()) return;
  const std::size_t at = rng.next_below(text->size());
  switch (rng.next_below(4)) {
    case 0:
      (*text)[at] = static_cast<char>((*text)[at] ^ (1 + rng.next_below(255)));
      break;
    case 1:
      text->erase(at, 1 + rng.next_below(8));
      break;
    case 2:
      text->resize(at);
      break;
    default: {
      const std::size_t start = text->find_first_of("0123456789", at);
      if (start == std::string::npos) return;
      const std::size_t end = std::min(
          text->find_first_not_of("0123456789", start), text->size());
      static const char* const kReplacements[] = {
          "-1", "4611686018427387904", "98765432109876543210", ""};
      text->replace(start, end - start, kReplacements[rng.next_below(4)]);
    }
  }
}

// Every mutant parses to a value or an error, never a throw, and an
// accepted mutant is a fixed point after one re-serialization: it
// re-serializes and re-parses to the same value. A count prefix used to
// be trusted and sized a vector, so an oversized one threw
// std::length_error out of the checkpoint and shard parsers.
TEST(Formats, MutantsParseToAValueOrAnErrorAndNeverThrow) {
  constexpr int kMutantsPerFormat = 20000;
  Rng rng(0x5eed);
  for (const Format& format : kFormats) {
    const std::string text = golden(format);
    int throws = 0;
    int accepted = 0;
    std::string first_throw;
    for (int i = 0; i < kMutantsPerFormat; ++i) {
      std::string mutant = text;
      for (int m = 1 + static_cast<int>(rng.next_below(3)); m > 0; --m) {
        mutate(rng, &mutant);
      }
      std::string error;
      std::optional<std::string> once;
      try {
        once = format.reserialize(mutant, &error);
      } catch (const std::exception& e) {
        if (throws++ == 0) first_throw = e.what() + ("\n" + mutant);
        continue;
      }
      if (!once.has_value()) {
        EXPECT_FALSE(error.empty()) << format.golden << ":\n" << mutant;
        continue;
      }
      ++accepted;
      const auto twice = format.reserialize(*once, &error);
      ASSERT_TRUE(twice.has_value())
          << format.golden << ": " << error << "\n" << mutant;
      EXPECT_EQ(*twice, *once) << format.golden << ":\n" << mutant;
    }
    std::printf("%s: %d mutants, %d accepted, %d threw\n", format.golden,
                kMutantsPerFormat, accepted, throws);
    EXPECT_EQ(throws, 0) << format.golden << ": " << first_throw;
    EXPECT_GT(accepted, 0) << format.golden;
  }
}

}  // namespace
}  // namespace dampi::test
