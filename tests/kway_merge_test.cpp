// Tests for the loser-tree k-way merge kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/kway_merge.hpp"

namespace pgxd::sort {
namespace {

std::vector<std::uint64_t> make_runs(std::size_t runs, std::size_t per_run,
                                     std::uint64_t seed,
                                     std::vector<std::size_t>& bounds,
                                     std::uint64_t domain = 1 << 20) {
  Rng rng(seed);
  std::vector<std::uint64_t> data;
  bounds.assign(1, 0);
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<std::uint64_t> run(per_run);
    for (auto& x : run) x = rng.bounded(domain);
    std::sort(run.begin(), run.end());
    data.insert(data.end(), run.begin(), run.end());
    bounds.push_back(data.size());
  }
  return data;
}

class KwayMergeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KwayMergeSweep, SortsForAnyRunCount) {
  const std::size_t runs = GetParam();
  std::vector<std::size_t> bounds;
  auto data = make_runs(runs, 700, runs + 3, bounds);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> scratch;
  const auto stats = kway_merge(data, bounds, scratch);
  EXPECT_EQ(data, expect);
  EXPECT_EQ(stats.runs, runs);
}

INSTANTIATE_TEST_SUITE_P(RunCounts, KwayMergeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 33));

TEST(KwayMerge, UnevenAndEmptyRuns) {
  std::vector<std::size_t> bounds{0};
  std::vector<std::uint64_t> data;
  Rng rng(5);
  for (std::size_t len : {0u, 17u, 4000u, 0u, 1u, 250u}) {
    std::vector<std::uint64_t> run(len);
    for (auto& x : run) x = rng.next();
    std::sort(run.begin(), run.end());
    data.insert(data.end(), run.begin(), run.end());
    bounds.push_back(data.size());
  }
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> scratch;
  kway_merge(data, bounds, scratch);
  EXPECT_EQ(data, expect);
}

struct Rec {
  int key;
  int run;
};
struct RecLess {
  bool operator()(const Rec& a, const Rec& b) const { return a.key < b.key; }
};

TEST(KwayMerge, StableAcrossRuns) {
  // Equal keys from lower-indexed runs must come out first.
  std::vector<Rec> data;
  std::vector<std::size_t> bounds{0};
  for (int r = 0; r < 4; ++r) {
    for (int k : {1, 5, 5, 9}) data.push_back(Rec{k, r});
    bounds.push_back(data.size());
  }
  std::vector<Rec> scratch;
  kway_merge(data, bounds, scratch, RecLess{});
  int prev_key = -1, prev_run = -1;
  for (const auto& rec : data) {
    ASSERT_GE(rec.key, prev_key);
    if (rec.key == prev_key) {
      ASSERT_GE(rec.run, prev_run);
    }
    prev_key = rec.key;
    prev_run = rec.run;
  }
}

TEST(KwayMerge, ComparisonCountIsNLogK) {
  std::vector<std::size_t> bounds;
  auto data = make_runs(16, 4000, 9, bounds);
  std::vector<std::uint64_t> scratch;
  const auto stats = kway_merge(data, bounds, scratch);
  // One root-to-leaf replay (log2 16 = 4 comparisons) per element, plus one
  // successor check per element whose run has a next key, plus the build.
  // Equal successors (rare over 2^20 values) skip their replay, and
  // matches against exhausted runs are not counted, so the total stays
  // under 5n.
  const auto n = 16u * 4000u;
  EXPECT_LE(stats.comparisons, n * 5);
  EXPECT_GE(stats.comparisons, n * 3);
}

TEST(KwayMerge, EqualSuccessorsSkipTheReplay) {
  // Runs made of long stretches of equal keys: a key followed by an equal
  // key in its own run is emitted without a replay. Bound, for R non-empty
  // runs of n keys over D distinct values and L = ceil(log2 R) levels:
  //   build            R - 1 matches (each removes one live contestant),
  //   successor checks n - R (one per key whose run has a next key),
  //   replays          at most R * D (one per stretch of equal keys in a
  //                    run: after its last key), L matches each,
  // so comparisons <= n - 1 + R * D * L. A replay after every key costs
  // about n * L.
  struct Tagged {
    std::uint64_t key;
    std::uint32_t run;
    std::uint32_t index;
  };
  for (const std::size_t runs : {2u, 8u, 33u}) {
    for (const std::uint64_t values : {1u, 3u}) {
      Rng rng(runs * 7 + values);
      std::vector<std::uint64_t> keys;
      std::vector<std::size_t> bounds{0};
      for (std::size_t r = 0; r < runs; ++r) {
        std::vector<std::uint64_t> run(1000 + rng.bounded(1000));
        for (auto& x : run) x = 5 + 10 * rng.bounded(values);
        std::sort(run.begin(), run.end());
        keys.insert(keys.end(), run.begin(), run.end());
        bounds.push_back(keys.size());
      }
      const std::size_t n = keys.size();

      std::vector<Tagged> want;
      for (std::size_t r = 0; r < runs; ++r)
        for (std::size_t i = bounds[r]; i < bounds[r + 1]; ++i)
          want.push_back({keys[i], static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(i - bounds[r])});
      std::vector<Tagged> scratch;
      balanced_merge(want, bounds, scratch, [](const Tagged& a, const Tagged& b) {
        return a.key < b.key;
      });

      const auto spans = runs_of<std::uint64_t>(keys.data(), bounds);
      std::vector<std::size_t> cursor(runs, 0);
      std::vector<std::pair<std::size_t, std::size_t>> got;
      const std::uint64_t comparisons = kway_merge_range<std::uint64_t>(
          spans, cursor, n, Less{},
          [&](std::size_t r, std::size_t i) { got.emplace_back(r, i); });
      ASSERT_EQ(got.size(), n);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(got[j].first, want[j].run) << "position " << j;
        ASSERT_EQ(got[j].second, want[j].index) << "position " << j;
      }
      const std::uint64_t levels = std::bit_width(runs - 1);
      EXPECT_LE(comparisons, n - 1 + runs * values * levels)
          << runs << " runs, " << values << " values";
    }
  }
}

TEST(KwayMerge, AllEqualKeys) {
  std::vector<std::uint64_t> data(3000, 7);
  const std::vector<std::size_t> bounds{0, 1000, 2000, 3000};
  std::vector<std::uint64_t> scratch;
  kway_merge(data, bounds, scratch);
  EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                          [](auto x) { return x == 7; }));
}

TEST(KwayMerge, EmptyInput) {
  std::vector<std::uint64_t> data;
  std::vector<std::uint64_t> scratch;
  const auto stats = kway_merge(data, {0}, scratch);
  EXPECT_EQ(stats.runs, 0u);
}

TEST(KwayMerge, MatchesBalancedMergeResult) {
  // The two merge strategies must agree (both stable over run order).
  std::vector<std::size_t> bounds;
  auto a = make_runs(9, 2500, 21, bounds, /*domain=*/50);  // heavy ties
  auto b = a;
  auto bounds_b = bounds;
  std::vector<std::uint64_t> s1, s2;
  kway_merge(a, bounds, s1);
  ::pgxd::sort::balanced_merge(b, bounds_b, s2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pgxd::sort
