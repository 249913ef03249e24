// Tests for the ffbench harness's own helpers: the guarded percentile, the
// /proc/stat steal parser, and the open-loop pacing schedule.
#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  EXPECT_EQ(Percentile(Ramp(20), 0.5), 10.0);
  EXPECT_EQ(Percentile(Ramp(200), 0.95), 190.0);
  EXPECT_EQ(Percentile(Ramp(5), 1.0, 0), 5.0);
  EXPECT_EQ(Percentile({7.0}, 0.5, 0), 7.0);
}

TEST(Percentile, GuardNeedsTenSamplesAboveTheRank) {
  EXPECT_FALSE(Percentile(Ramp(19), 0.5).has_value());
  EXPECT_TRUE(Percentile(Ramp(20), 0.5).has_value());
  EXPECT_FALSE(Percentile(Ramp(199), 0.95).has_value());
  EXPECT_TRUE(Percentile(Ramp(200), 0.95).has_value());
  EXPECT_TRUE(Percentile(Ramp(3), 0.5, 1).has_value());
  EXPECT_FALSE(Percentile(Ramp(3), 0.5, 2).has_value());
}

TEST(Percentile, RejectsEmptyAndOutOfRangeQuantiles) {
  EXPECT_FALSE(Percentile({}, 0.5, 0).has_value());
  EXPECT_FALSE(Percentile(Ramp(50), 0.0, 0).has_value());
  EXPECT_FALSE(Percentile(Ramp(50), 1.5, 0).has_value());
}

TEST(Median, OfOddAndEvenCounts) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower middle
}

TEST(MedianOfGroupP50s, SkipsSmallGroupsAndIgnoresAMinorityEpisode) {
  std::vector<std::vector<double>> groups(5, Ramp(20));  // p50 10 each
  groups[1] = std::vector<double>(20, 500.0);             // one slow group
  groups.push_back(Ramp(19));                             // too small: skipped
  EXPECT_EQ(MedianOfGroupP50s(groups, 5), 10.0);
  EXPECT_FALSE(MedianOfGroupP50s(groups, 6).has_value());
  EXPECT_FALSE(MedianOfGroupP50s({}, 0).has_value());
}

TEST(ProcStat, ParsesTheAggregateCpuLine) {
  const std::string text =
      "cpu  100 5 20 800 10 1 2 30 0 0\n"
      "cpu0 50 2 10 400 5 0 1 15 0 0\n"
      "intr 12345\n";
  const auto t = ParseProcStat(text);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->busy, 100u + 5 + 20 + 1 + 2);
  EXPECT_EQ(t->idle, 800u + 10);
  EXPECT_EQ(t->steal, 30u);
  EXPECT_EQ(t->total(), 968u);
}

TEST(ProcStat, RejectsMissingOrShortLines) {
  EXPECT_FALSE(ParseProcStat("cpu0 1 2 3 4 5 6 7 8\n").has_value());
  EXPECT_FALSE(ParseProcStat("cpu  1 2 3 4 5 6 7\n").has_value());
  EXPECT_FALSE(ParseProcStat("").has_value());
}

TEST(ProcStat, StealFractionOverAnInterval) {
  const CpuTimes a{.busy = 100, .idle = 800, .steal = 100};
  const CpuTimes b{.busy = 160, .idle = 820, .steal = 120};
  EXPECT_DOUBLE_EQ(StealFraction(a, b), 20.0 / 100.0);
  EXPECT_EQ(StealFraction(a, a), 0.0);  // no tick elapsed
  EXPECT_EQ(StealFraction(b, a), 0.0);  // counters went backwards
}

TEST(ProcStat, ReadsThisHost) {
  // Linux only; elsewhere the reader reports nothing rather than failing.
  if (const auto t = ReadProcStat()) {
    EXPECT_GT(t->total(), 0u);
  }
}

TEST(PacingSchedule, DueTimesNeverDrift) {
  const PacingSchedule s(1'000, 15);
  EXPECT_EQ(s.Due(0), 1'000);
  EXPECT_EQ(s.Due(1), 1'000 + 66'666'666);
  EXPECT_EQ(s.Due(15), 1'000 + 1'000'000'000);  // exactly one second
  EXPECT_EQ(s.Due(15 * 3600), 1'000 + 3600ll * 1'000'000'000);
  for (std::int64_t k = 1; k < 1000; ++k) {
    const std::int64_t gap = s.Due(k) - s.Due(k - 1);
    EXPECT_TRUE(gap == 66'666'666 || gap == 66'666'667) << k;
  }
}

TEST(PacingSchedule, ClampsNonPositiveRates) {
  const PacingSchedule s(0, 0);
  EXPECT_EQ(s.fps(), 1);
  EXPECT_EQ(s.Due(2), 2'000'000'000);
}

}  // namespace
}  // namespace perfbench
