// Unit tests for partition planning: plain binary-search bounds and the
// duplicate-splitter investigator (Fig. 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/splitters.hpp"

namespace pgxd::core {
namespace {

TEST(PlanPartition, DistinctSplittersMatchLowerBounds) {
  std::vector<int> keys(100);
  std::iota(keys.begin(), keys.end(), 0);
  const std::vector<int> splitters{25, 50, 75};
  for (bool inv : {false, true}) {
    const auto plan = plan_partition<int>(keys, splitters, inv);
    EXPECT_EQ(plan.bounds, (std::vector<std::size_t>{0, 25, 50, 75, 100}));
    EXPECT_EQ(plan.duplicate_groups, 0u);
  }
}

TEST(PlanPartition, SearchCounts) {
  std::vector<int> keys(100);
  std::iota(keys.begin(), keys.end(), 0);
  const std::vector<int> dup{50, 50, 50, 50};
  // Without the investigator: one search per splitter.
  EXPECT_EQ(plan_partition<int>(keys, dup, false).searches, 4u);
  // With it: lower+upper bound for the single distinct group.
  const auto plan = plan_partition<int>(keys, dup, true);
  EXPECT_EQ(plan.searches, 2u);
  EXPECT_EQ(plan.duplicate_groups, 1u);
}

TEST(PlanPartition, Figure3bWithoutInvestigatorCollapses) {
  // All keys equal the duplicated splitter: the naive plan sends everything
  // to one destination.
  const std::vector<int> keys(1000, 7);
  const std::vector<int> splitters{7, 7, 7};  // 4 destinations
  const auto plan = plan_partition<int>(keys, splitters, false);
  const auto sizes = plan_sizes(plan);
  // lower_bound(7) == 0 for all: destination 0..2 get nothing, 3 gets all.
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{0, 0, 0, 1000}));
}

TEST(PlanPartition, Figure3cInvestigatorDividesEqually) {
  const std::vector<int> keys(1000, 7);
  const std::vector<int> splitters{7, 7, 7};
  const auto plan = plan_partition<int>(keys, splitters, true);
  const auto sizes = plan_sizes(plan);
  // The duplicate run is split equally across all four destinations the
  // duplicated group touches — Table II's equal-share behaviour.
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{250, 250, 250, 250}));
}

TEST(PlanPartition, InvestigatorAimsAtShares) {
  // A duplicate run the investigator may split anywhere: with parts of 3,
  // 3 and 2 members, boundary j lands at shares[j] / shares[parts] of the
  // local keys.
  const std::vector<int> keys(800, 7);
  const std::vector<int> splitters{7, 7};
  const std::vector<std::size_t> shares{0, 3, 6, 8};
  const auto plan = plan_partition<int>(keys, splitters, true, {}, shares);
  EXPECT_EQ(plan.bounds, (std::vector<std::size_t>{0, 300, 600, 800}));
  // Without shares the run splits into equal thirds.
  EXPECT_EQ(plan_partition<int>(keys, splitters, true).bounds,
            (std::vector<std::size_t>{0, 266, 533, 800}));
}

TEST(PlanPartition, MixedDistinctAndDuplicateGroups) {
  // keys: 200 zeros, 600 fives, 200 nines.
  std::vector<int> keys;
  keys.insert(keys.end(), 200, 0);
  keys.insert(keys.end(), 600, 5);
  keys.insert(keys.end(), 200, 9);
  const std::vector<int> splitters{5, 5, 5, 9};  // 5 destinations
  const auto plan = plan_partition<int>(keys, splitters, true);
  const auto sizes = plan_sizes(plan);
  ASSERT_EQ(sizes.size(), 5u);
  // Load-aware division: the run of fives is split so every destination's
  // *total* lands at the 200-element target, heads included.
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{200, 200, 200, 200, 200}));
  EXPECT_EQ(plan.duplicate_groups, 1u);
}

TEST(PlanPartition, EmptyKeysAndNoSplitters) {
  const std::vector<int> none;
  const auto plan = plan_partition<int>(none, none, true);
  EXPECT_EQ(plan.bounds, (std::vector<std::size_t>{0, 0}));

  std::vector<int> keys{1, 2, 3};
  const auto p2 = plan_partition<int>(keys, none, true);
  EXPECT_EQ(p2.bounds, (std::vector<std::size_t>{0, 3}));
}

TEST(PlanPartition, SplittersOutsideKeyRange) {
  const std::vector<int> keys{10, 11, 12};
  const std::vector<int> splitters{1, 2, 20, 30};
  for (bool inv : {false, true}) {
    const auto plan = plan_partition<int>(keys, splitters, inv);
    const auto sizes = plan_sizes(plan);
    // Everything lands between splitter 2 and splitter 20 -> destination 2.
    EXPECT_EQ(sizes, (std::vector<std::uint64_t>{0, 0, 3, 0, 0}));
  }
}

TEST(PlanPartition, BoundsAlwaysCoverAllKeys) {
  // Property: for random keys and random (sorted) splitters, bounds are
  // monotone and partition the full range, with and without investigator.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> keys(500);
    for (auto& k : keys) k = rng.bounded(20);  // heavy duplication
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint64_t> splitters(7);
    for (auto& s : splitters) s = rng.bounded(20);
    std::sort(splitters.begin(), splitters.end());
    for (bool inv : {false, true}) {
      const auto plan = plan_partition<std::uint64_t>(keys, splitters, inv);
      ASSERT_EQ(plan.bounds.front(), 0u);
      ASSERT_EQ(plan.bounds.back(), keys.size());
      ASSERT_TRUE(std::is_sorted(plan.bounds.begin(), plan.bounds.end()));
    }
  }
}

TEST(PlanPartition, RangeRespectsSplitterSemantics) {
  // Destination j must only receive keys k with splitter[j-1] <= k (< next
  // distinct splitter group's value when no duplication is in play).
  Rng rng(5);
  std::vector<std::uint64_t> keys(2000);
  for (auto& k : keys) k = rng.bounded(1000);  // few duplicates
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint64_t> splitters{100, 300, 500, 900};
  const auto plan = plan_partition<std::uint64_t>(keys, splitters, true);
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t i = plan.bounds[j]; i < plan.bounds[j + 1]; ++i) {
      if (j > 0) {
        EXPECT_GE(keys[i], splitters[j - 1]);
      }
      if (j < 4) {
        EXPECT_LE(keys[i], splitters[j]);
      }
    }
  }
}

TEST(PlanPartition, InvestigatorBalancesSkewedKeys) {
  // 98% of keys share one value; splitters drawn from the keys themselves
  // (as sample sort would). The investigator plan must be far more balanced
  // than the naive plan. (Keys strictly below/above the duplicated value are
  // pinned to the boundary destinations by splitter semantics, so the head
  // fraction bounds the residual imbalance — Table II's real datasets have
  // sub-percent heads.)
  Rng rng(31);
  std::vector<std::uint64_t> keys(10000);
  for (auto& k : keys) k = rng.bounded(50) == 0 ? rng.bounded(100) : 55;
  std::sort(keys.begin(), keys.end());
  // Regular splitters from the sorted keys (8 destinations).
  std::vector<std::uint64_t> splitters;
  for (std::size_t j = 1; j < 8; ++j) splitters.push_back(keys[j * keys.size() / 8]);

  const auto naive = balance_report(plan_sizes(
      plan_partition<std::uint64_t>(keys, splitters, false)));
  const auto fixed = balance_report(plan_sizes(
      plan_partition<std::uint64_t>(keys, splitters, true)));
  EXPECT_GT(naive.imbalance, 4.0);   // one destination hoards the duplicates
  EXPECT_LT(fixed.imbalance, 1.15);  // near-perfect split
}

}  // namespace
}  // namespace pgxd::core
