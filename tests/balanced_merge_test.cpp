// Tests for the Fig. 2 balanced merge handler: the record-layout kernel and
// the key + permutation kernel the distributed sorter runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/soa_merge.hpp"

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
  // 4 equal runs of 100: every level moves all 400 elements, in both
  // layouts.
  std::vector<std::size_t> bounds;
  auto data = make_runs(4, 100, 13, bounds);
  std::vector<std::uint32_t> perm(data.size());
  std::iota(perm.begin(), perm.end(), 0u);
  auto keys = data;
  std::vector<std::uint64_t> scratch;
  const auto stats = balanced_merge(data, bounds, scratch);
  EXPECT_EQ(stats.levels, 2u);
  EXPECT_EQ(stats.merges, 3u);
  EXPECT_EQ(stats.elements_moved, 800u);

  std::vector<std::uint32_t> perm_scratch;
  const auto soa =
      balanced_merge_soa(keys, perm, bounds, scratch, perm_scratch).stats;
  EXPECT_EQ(soa.levels, 2u);
  EXPECT_EQ(soa.merges, 3u);
  EXPECT_EQ(soa.elements_moved, 800u);
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

// --- SoA (key + permutation) balanced merge ---------------------------------

// Oracle properties for balanced_merge_soa: the merged keys equal
// std::sort's result, the permutation is a true permutation that maps each
// output slot back to its input key, and equal keys keep ascending
// permutation values (the stability invariant provenance reconstruction in
// the distributed sort relies on). `stats`, when given, receives the
// merge's statistics.
void check_soa_merge(std::vector<std::uint64_t> keys,
                     std::vector<std::size_t> bounds,
                     BalancedMergeStats* stats = nullptr) {
  const std::vector<std::uint64_t> original = keys;
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint32_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint64_t> key_scratch;
  std::vector<std::uint32_t> perm_scratch;
  const auto res =
      balanced_merge_soa(keys, perm, bounds, key_scratch, perm_scratch,
                         std::less<std::uint64_t>{});
  if (stats != nullptr) *stats = res.stats;
  const auto& mk = res.in_scratch ? key_scratch : keys;
  const auto& mp = res.in_scratch ? perm_scratch : perm;
  ASSERT_EQ(mk.size(), original.size());
  ASSERT_EQ(mp.size(), original.size());
  ASSERT_TRUE(std::equal(mk.begin(), mk.end(), expect.begin(), expect.end()));
  std::vector<bool> seen(original.size(), false);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const std::uint32_t q = mp[i];
    ASSERT_LT(q, original.size());
    ASSERT_FALSE(seen[q]) << "permutation repeats source index " << q;
    seen[q] = true;
    ASSERT_EQ(mk[i], original[q]) << "perm does not map back to its key";
    if (i > 0 && mk[i] == mk[i - 1]) {
      ASSERT_LT(mp[i - 1], mp[i]) << "equal keys must keep ascending perm";
    }
  }
}

class SoaMergeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SoaMergeSweep, MergesAnyRunCountWithValidPermutation) {
  const std::size_t runs = GetParam();
  std::vector<std::size_t> bounds;
  auto keys = make_runs(runs, 700, runs + 19, bounds);
  BalancedMergeStats stats;
  check_soa_merge(std::move(keys), std::move(bounds), &stats);
  // The Fig. 2 tree: e.g. 8 equal runs merge in 3 levels and 7 merges.
  EXPECT_EQ(stats.levels, merge_schedule(runs).size());
  EXPECT_EQ(stats.merges, runs - 1);
}

INSTANTIATE_TEST_SUITE_P(RunCounts, SoaMergeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 32));

TEST(SoaMerge, AdversarialKeyPatterns) {
  // All-equal, two-value, and presorted runs stress the tie-stability rule.
  for (int pattern = 0; pattern < 3; ++pattern) {
    std::vector<std::size_t> bounds{0};
    std::vector<std::uint64_t> keys;
    Rng rng(100 + pattern);
    for (std::size_t r = 0; r < 6; ++r) {
      std::vector<std::uint64_t> run(500);
      for (auto& x : run) {
        if (pattern == 0) x = 7;
        else if (pattern == 1) x = rng.bounded(2);
        else x = rng.bounded(50);
      }
      std::sort(run.begin(), run.end());
      keys.insert(keys.end(), run.begin(), run.end());
      bounds.push_back(keys.size());
    }
    check_soa_merge(std::move(keys), std::move(bounds));
  }
}

TEST(SoaMerge, UnevenAndEmptyRuns) {
  std::vector<std::size_t> bounds{0};
  std::vector<std::uint64_t> keys;
  Rng rng(55);
  for (std::size_t len : {0u, 3u, 9000u, 1u, 250u, 0u, 17u}) {
    std::vector<std::uint64_t> run(len);
    for (auto& x : run) x = rng.bounded(1000);
    std::sort(run.begin(), run.end());
    keys.insert(keys.end(), run.begin(), run.end());
    bounds.push_back(keys.size());
  }
  check_soa_merge(std::move(keys), std::move(bounds));
}

TEST(SoaMerge, SingleRunIsNoOpInPlace) {
  std::vector<std::uint64_t> keys{1, 2, 3};
  std::vector<std::uint32_t> perm{0, 1, 2};
  std::vector<std::uint64_t> ks;
  std::vector<std::uint32_t> ps;
  const auto res = balanced_merge_soa(keys, perm, {0, 3}, ks, ps);
  EXPECT_FALSE(res.in_scratch);
  EXPECT_EQ(res.stats.levels, 0u);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 3}));
}

}  // namespace
}  // namespace pgxd::sort
