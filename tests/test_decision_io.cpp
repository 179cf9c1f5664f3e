// Epoch Decisions file round trips and end-to-end replay of saved
// reproducers.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/decision_io.hpp"
#include "core/explorer.hpp"
#include "support/verify_helpers.hpp"
#include "workloads/patterns.hpp"

namespace dampi::test {
namespace {

using core::EpochKey;
using core::Schedule;

TEST(DecisionIo, RoundTrip) {
  Schedule schedule;
  schedule.forced[EpochKey{1, 0}] = 2;
  schedule.forced[EpochKey{1, 7}] = 0;
  schedule.forced[EpochKey{3, 2}] = 1;
  const std::string text = core::serialize_schedule(schedule);
  const auto parsed = core::parse_schedule(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->forced, schedule.forced);
}

TEST(DecisionIo, EmptyScheduleRoundTrips) {
  const auto parsed = core::parse_schedule(core::serialize_schedule({}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(DecisionIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# dampi-epoch-decisions v1\n"
      "\n"
      "# a comment\n"
      "0 3 1\n"
      "\n";
  const auto parsed = core::parse_schedule(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->lookup(EpochKey{0, 3}), 1);
}

TEST(DecisionIo, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(core::parse_schedule("1 0 2\n", &error));  // no header
  EXPECT_NE(error.find("header"), std::string::npos);
  EXPECT_FALSE(core::parse_schedule("garbage\n1 0 2\n", &error));

  EXPECT_FALSE(core::parse_schedule(
      "# dampi-epoch-decisions v1\nnot numbers\n", &error));
  EXPECT_FALSE(core::parse_schedule(
      "# dampi-epoch-decisions v1\n-1 0 2\n", &error));
  // A sign on the unsigned nd index used to wrap; extra tokens used to be
  // ignored.
  EXPECT_FALSE(core::parse_schedule(
      "# dampi-epoch-decisions v1\n0 -1 2\n", &error));
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  EXPECT_FALSE(core::parse_schedule(
      "# dampi-epoch-decisions v1\n0 1 2 junk\n", &error));
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  EXPECT_FALSE(core::parse_schedule(
      "# dampi-epoch-decisions v1\n1 0 2\n1 0 0\n", &error));  // duplicate
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

// mpism permits self-sends, so a wildcard receive can legitimately match
// its own rank; a saved reproducer containing one must re-load.
TEST(DecisionIo, SelfMatchRoundTrips) {
  Schedule schedule;
  schedule.forced[EpochKey{0, 0}] = 0;  // rank 0 matched its own send
  schedule.forced[EpochKey{2, 3}] = 2;
  schedule.forced[EpochKey{2, 4}] = 1;
  const auto parsed = core::parse_schedule(core::serialize_schedule(schedule));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->forced, schedule.forced);

  std::string error;
  const auto direct = core::parse_schedule(
      "# dampi-epoch-decisions v1\n1 0 1\n", &error);
  ASSERT_TRUE(direct.has_value()) << error;
  EXPECT_EQ(direct->lookup(EpochKey{1, 0}), 1);
}

// The header must be the first non-blank line; decision lines before it
// (or a file whose header appears last) were previously accepted and
// silently replayed a truncated schedule.
TEST(DecisionIo, HeaderMustComeFirst) {
  std::string error;
  // Decisions before the header.
  EXPECT_FALSE(core::parse_schedule(
      "1 0 2\n# dampi-epoch-decisions v1\n", &error));
  EXPECT_NE(error.find("header"), std::string::npos);
  // Header last, after all the decisions.
  EXPECT_FALSE(core::parse_schedule(
      "0 1 2\n0 2 1\n# dampi-epoch-decisions v1\n", &error));
  // A stray comment before the header is also not a decisions file.
  EXPECT_FALSE(core::parse_schedule(
      "# a comment\n# dampi-epoch-decisions v1\n0 1 2\n", &error));
  // Leading blank lines are fine.
  const auto parsed = core::parse_schedule(
      "\n\n# dampi-epoch-decisions v1\n0 1 2\n", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->lookup(EpochKey{0, 1}), 2);
}

TEST(DecisionIo, SaveLoadFile) {
  Schedule schedule;
  schedule.forced[EpochKey{2, 5}] = 0;
  const std::string path = ::testing::TempDir() + "/decisions.txt";
  ASSERT_TRUE(core::save_schedule(schedule, path));
  const auto loaded = core::load_schedule(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->forced, schedule.forced);
  std::remove(path.c_str());
}

TEST(DecisionIo, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(core::load_schedule("/nonexistent/path/x.txt", &error));
  EXPECT_FALSE(error.empty());
}

// Regression: a decision naming rank 9 at 4 ranks used to write past the
// end of DampiShared's per-rank table on --replay. Loaders reject it
// against the run's rank count, and DampiShared refuses it outright.
TEST(DecisionIo, OutOfRangeRankOrSourceIsRejected) {
  std::string error;
  const auto bad_rank =
      core::parse_schedule("# dampi-epoch-decisions v1\n9 0 1\n", &error);
  ASSERT_TRUE(bad_rank.has_value()) << error;  // well-formed text
  EXPECT_FALSE(core::validate_schedule(*bad_rank, 4, &error));
  EXPECT_NE(error.find("9 0 1"), std::string::npos) << error;

  const auto bad_src =
      core::parse_schedule("# dampi-epoch-decisions v1\n1 0 4\n", &error);
  ASSERT_TRUE(bad_src.has_value()) << error;
  EXPECT_FALSE(core::validate_schedule(*bad_src, 4, &error));
  EXPECT_TRUE(core::validate_schedule(*bad_src, 5, &error)) << error;

  core::ExplorerOptions options = explorer_options(4);
  EXPECT_THROW(core::DampiShared(options, *bad_rank, nullptr), InternalError);
}

TEST(DecisionIo, SavedReproducerReplaysTheBug) {
  // Find the fig3 bug, save its reproducer, reload it, replay it.
  core::ExplorerOptions options = explorer_options(3);
  core::Explorer explorer(options);
  const auto result = explorer.explore(workloads::fig3_wildcard_bug);
  ASSERT_TRUE(result.found_bug());

  const std::string path = ::testing::TempDir() + "/fig3_repro.txt";
  ASSERT_TRUE(core::save_schedule(result.bugs.back().schedule, path));
  const auto loaded = core::load_schedule(path);
  ASSERT_TRUE(loaded.has_value());

  for (int i = 0; i < 5; ++i) {
    const auto replay =
        core::run_guided_once(options, *loaded, workloads::fig3_wildcard_bug);
    ASSERT_FALSE(replay.report.errors.empty()) << "replay " << i;
    EXPECT_NE(replay.report.errors[0].message.find("x == 33"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dampi::test
