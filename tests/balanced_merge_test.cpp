// Tests for the Fig. 2 balanced merge handler: its schedule and the
// kernel, which the k-way merge tests use as their oracle. The distributed
// sorter charges this tree on the simulated clock and merges with the
// loser tree on the host.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sort/balanced_merge.hpp"

namespace pgxd::sort {
namespace {

TEST(MergeSchedule, EightRunsReproducesFigure2) {
  const auto levels = merge_schedule(8);
  ASSERT_EQ(levels.size(), 3u);
  // Level 0: (0,1) (2,3) (4,5) (6,7) — threads 1->0, 3->2, 5->4, 7->6.
  ASSERT_EQ(levels[0].size(), 4u);
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(levels[0][m].left, 2 * m);
    EXPECT_EQ(levels[0][m].right, 2 * m + 1);
  }
  // Level 1 (indices within the 4 surviving runs): (0,1) (2,3), i.e. the
  // original threads 2->0 and 6->4.
  ASSERT_EQ(levels[1].size(), 2u);
  // Level 2: final merge, original thread 4 -> 0.
  ASSERT_EQ(levels[2].size(), 1u);
}

TEST(MergeSchedule, OddRunCounts) {
  const auto levels = merge_schedule(5);
  // 5 -> 3 -> 2 -> 1: three levels with 2, 1, 1 merges.
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0].size(), 2u);
  EXPECT_EQ(levels[1].size(), 1u);
  EXPECT_EQ(levels[2].size(), 1u);
}

TEST(MergeSchedule, TrivialCounts) {
  EXPECT_TRUE(merge_schedule(0).empty());
  EXPECT_TRUE(merge_schedule(1).empty());
  EXPECT_EQ(merge_schedule(2).size(), 1u);
}

std::vector<std::uint64_t> make_runs(std::size_t runs, std::size_t per_run,
                                     std::uint64_t seed,
                                     std::vector<std::size_t>& bounds) {
  Rng rng(seed);
  std::vector<std::uint64_t> data;
  bounds.clear();
  bounds.push_back(0);
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<std::uint64_t> run(per_run);
    for (auto& x : run) x = rng.bounded(1 << 20);
    std::sort(run.begin(), run.end());
    data.insert(data.end(), run.begin(), run.end());
    bounds.push_back(data.size());
  }
  return data;
}

class BalancedMergeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BalancedMergeSweep, SortsForAnyRunCount) {
  const std::size_t runs = GetParam();
  std::vector<std::size_t> bounds;
  auto data = make_runs(runs, 1000, runs + 5, bounds);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> scratch;
  const auto stats = balanced_merge(data, bounds, scratch);
  EXPECT_EQ(data, expect);
  if (runs > 1) {
    EXPECT_EQ(stats.levels, merge_schedule(runs).size());
  }
}

INSTANTIATE_TEST_SUITE_P(RunCounts, BalancedMergeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 32));

TEST(BalancedMerge, UnevenRunSizes) {
  std::vector<std::size_t> bounds{0};
  std::vector<std::uint64_t> data;
  Rng rng(77);
  for (std::size_t len : {0u, 5u, 10000u, 1u, 300u, 0u, 42u}) {
    std::vector<std::uint64_t> run(len);
    for (auto& x : run) x = rng.next();
    std::sort(run.begin(), run.end());
    data.insert(data.end(), run.begin(), run.end());
    bounds.push_back(data.size());
  }
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> scratch;
  balanced_merge(data, bounds, scratch);
  EXPECT_EQ(data, expect);
}

TEST(BalancedMerge, ElementsMovedCountsLevelTraffic) {
  // 4 equal runs of 100: every level moves all 400 elements.
  std::vector<std::size_t> bounds;
  auto data = make_runs(4, 100, 13, bounds);
  std::vector<std::uint64_t> scratch;
  const auto stats = balanced_merge(data, bounds, scratch);
  EXPECT_EQ(stats.levels, 2u);
  EXPECT_EQ(stats.merges, 3u);
  EXPECT_EQ(stats.elements_moved, 800u);
}

TEST(BalancedMerge, EmptyAndSingleRun) {
  std::vector<std::uint64_t> data;
  std::vector<std::uint64_t> scratch;
  auto stats = balanced_merge(data, {0}, scratch);
  EXPECT_EQ(stats.levels, 0u);

  data = {5, 6, 7};
  stats = balanced_merge(data, {0, 3}, scratch);
  EXPECT_EQ(stats.levels, 0u);
  EXPECT_EQ(data, (std::vector<std::uint64_t>{5, 6, 7}));
}

}  // namespace
}  // namespace pgxd::sort
