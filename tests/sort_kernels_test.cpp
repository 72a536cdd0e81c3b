// Tests for the two-way merge, quicksort and splitter selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sort/merge.hpp"
#include "sort/quicksort.hpp"
#include "sort/samples.hpp"

namespace pgxd::sort {
namespace {

std::vector<std::uint64_t> random_vec(std::size_t n, std::uint64_t seed,
                                      std::uint64_t domain = ~0ULL) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = domain == ~0ULL ? rng.next() : rng.bounded(domain);
  return v;
}

// --- merge_into --------------------------------------------------------------

TEST(MergeInto, BasicMerge) {
  const std::vector<int> a{1, 3, 5}, b{2, 4, 6};
  std::vector<int> out(6);
  merge_into<int>(a, b, out);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(MergeInto, EmptySides) {
  const std::vector<int> a{1, 2}, empty;
  std::vector<int> out(2);
  merge_into<int>(a, empty, out);
  EXPECT_EQ(out, a);
  merge_into<int>(empty, a, out);
  EXPECT_EQ(out, a);
}

struct Tagged {
  int key;
  int source;  // 0 = from a, 1 = from b
};
struct TaggedLess {
  bool operator()(const Tagged& x, const Tagged& y) const { return x.key < y.key; }
};

TEST(MergeInto, StableOnTies) {
  const std::vector<Tagged> a{{1, 0}, {2, 0}, {2, 0}};
  const std::vector<Tagged> b{{1, 1}, {2, 1}, {3, 1}};
  std::vector<Tagged> out(6);
  merge_into<Tagged, TaggedLess>(a, b, out, {});
  // Within equal keys, all a-elements precede all b-elements.
  EXPECT_EQ(out[0].source, 0);  // 1 from a
  EXPECT_EQ(out[1].source, 1);  // 1 from b
  EXPECT_EQ(out[2].source, 0);  // 2 from a
  EXPECT_EQ(out[3].source, 0);  // 2 from a
  EXPECT_EQ(out[4].source, 1);  // 2 from b
  EXPECT_EQ(out[5].source, 1);  // 3 from b
}

// --- quicksort ------------------------------------------------------------

class QuicksortSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuicksortSweep, MatchesStdSort) {
  auto v = random_vec(GetParam(), 11 + GetParam());
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  quicksort(std::span<std::uint64_t>(v));
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuicksortSweep,
                         ::testing::Values(0, 1, 2, 3, 10, 24, 25, 100, 1000,
                                           65536));

TEST(Quicksort, AdversarialPatterns) {
  // Sorted, reverse-sorted, all-equal, organ pipe, few distinct values.
  std::vector<std::vector<std::uint64_t>> inputs;
  std::vector<std::uint64_t> v(5000);
  std::iota(v.begin(), v.end(), 0);
  inputs.push_back(v);
  std::reverse(v.begin(), v.end());
  inputs.push_back(v);
  inputs.push_back(std::vector<std::uint64_t>(5000, 42));
  std::vector<std::uint64_t> pipe;
  for (std::uint64_t i = 0; i < 2500; ++i) pipe.push_back(i);
  for (std::uint64_t i = 2500; i > 0; --i) pipe.push_back(i);
  inputs.push_back(pipe);
  inputs.push_back(random_vec(5000, 9, 3));
  for (auto& in : inputs) {
    auto expect = in;
    std::sort(expect.begin(), expect.end());
    quicksort(std::span<std::uint64_t>(in));
    EXPECT_EQ(in, expect);
  }
}

// Oracle sweep: the block partition's SIMD and scalar classify loops
// against std::sort over adversarial patterns, with sizes crossing the
// 2*kPartitionBlock boundary where the block kernel's final short blocks
// kick in. The scalar loop is the only one other key types ever run.
std::vector<std::uint64_t> make_pattern(const std::string& pattern,
                                        std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  if (pattern == "all_equal") {
    std::fill(v.begin(), v.end(), 42);
  } else if (pattern == "two_value") {
    Rng rng(seed);
    for (auto& x : v) x = rng.bounded(2);
  } else if (pattern == "organ_pipe") {
    for (std::size_t i = 0; i < n; ++i) v[i] = std::min(i, n - i);
  } else if (pattern == "presorted") {
    std::iota(v.begin(), v.end(), 0);
  } else if (pattern == "reverse") {
    for (std::size_t i = 0; i < n; ++i) v[i] = n - i;
  } else if (pattern == "random") {
    Rng rng(seed);
    for (auto& x : v) x = rng.next();
  } else if (pattern == "few_distinct") {
    Rng rng(seed);
    for (auto& x : v) x = rng.bounded(7);
  } else {
    ADD_FAILURE() << "unknown pattern " << pattern;
  }
  return v;
}

class QuicksortConfigSweep
    : public ::testing::TestWithParam<std::tuple<bool, std::string>> {};

TEST_P(QuicksortConfigSweep, OracleAcrossPatternsAndSizes) {
  const auto [simd, pattern] = GetParam();
  const QuicksortConfig cfg{simd};
  // Sizes straddling the insertion cutoff and the 2*kPartitionBlock = 128
  // block-partition boundary, plus sizes deep into the blocked main loop.
  for (std::size_t n : {0u, 1u, 2u, 24u, 25u, 63u, 64u, 127u, 128u, 129u,
                        191u, 192u, 300u, 1000u, 5000u}) {
    auto v = make_pattern(pattern, n, n * 31 + 7);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    quicksort(std::span<std::uint64_t>(v), std::less<std::uint64_t>{}, cfg);
    ASSERT_EQ(v, expect) << "pattern=" << pattern << " n=" << n
                         << " simd=" << simd;
  }
}

std::string quicksort_config_name(
    const ::testing::TestParamInfo<std::tuple<bool, std::string>>& info) {
  return std::get<1>(info.param) +
         (std::get<0>(info.param) ? "_simd" : "_scalar");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QuicksortConfigSweep,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values("all_equal", "two_value",
                                         "organ_pipe", "presorted", "reverse",
                                         "random", "few_distinct")),
    quicksort_config_name);

TEST(Quicksort, CustomComparatorDescending) {
  auto v = random_vec(1000, 5);
  quicksort(std::span<std::uint64_t>(v), std::greater<std::uint64_t>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<std::uint64_t>{}));
}

TEST(InsertionSort, SmallInputs) {
  for (std::size_t n : {0u, 1u, 2u, 5u, 23u}) {
    auto v = random_vec(n, n + 100);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    insertion_sort(std::span<std::uint64_t>(v));
    EXPECT_EQ(v, expect);
  }
}

// --- sampling ------------------------------------------------------------

TEST(RegularSamples, PositionsAreQuantiles) {
  std::vector<std::uint64_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  // Member idx of q takes sample i at (i + (idx + 1/2) / q) * 100 / 4.
  // One member: 12.5, 37.5, 62.5, 87.5.
  EXPECT_EQ(regular_samples<std::uint64_t>(data, 4, 0, 1),
            (std::vector<std::uint64_t>{12, 37, 62, 87}));
  // Two members: 6.25, 31.25, ... and 18.75, 43.75, ...
  EXPECT_EQ(regular_samples<std::uint64_t>(data, 4, 0, 2),
            (std::vector<std::uint64_t>{6, 31, 56, 81}));
  EXPECT_EQ(regular_samples<std::uint64_t>(data, 4, 1, 2),
            (std::vector<std::uint64_t>{18, 43, 68, 93}));
}

TEST(RegularSamples, CountGeSizeReturnsAll) {
  const std::vector<std::uint64_t> data{3, 5, 9};
  EXPECT_EQ(regular_samples<std::uint64_t>(data, 10, 0, 1), data);
  EXPECT_EQ(regular_samples<std::uint64_t>(data, 3, 2, 4), data);
}

TEST(RegularSamples, SamplesAreSortedSubset) {
  auto data = random_vec(1000, 21);
  std::sort(data.begin(), data.end());
  for (std::size_t idx : {0u, 5u, 12u}) {
    const auto s = regular_samples<std::uint64_t>(data, 37, idx, 13);
    EXPECT_EQ(s.size(), 37u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    for (auto x : s)
      EXPECT_TRUE(std::binary_search(data.begin(), data.end(), x));
  }
}

// q members sampling one identical run interleave: together they pick
// q * s distinct positions, exactly the one-member regular sample of size
// q * s. Aligned picks would give every member the same s positions.
TEST(RegularSamples, MembersOfOneScopeInterleave) {
  std::vector<std::uint64_t> data(10000);
  std::iota(data.begin(), data.end(), 0);
  const std::size_t q = 64, s = 16;
  std::vector<std::uint64_t> all;
  for (std::size_t idx = 0; idx < q; ++idx) {
    const auto got = regular_samples<std::uint64_t>(data, s, idx, q);
    all.insert(all.end(), got.begin(), got.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), q * s);
  EXPECT_EQ(all, regular_samples<std::uint64_t>(data, q * s, 0, 1));
}

TEST(SelectSplitters, CountAndOrder) {
  std::vector<std::uint64_t> samples(100);
  std::iota(samples.begin(), samples.end(), 0);
  const auto sp = select_splitters<std::uint64_t>(samples, 10);
  EXPECT_EQ(sp.size(), 9u);
  EXPECT_TRUE(std::is_sorted(sp.begin(), sp.end()));
  // Splitters sit at the j/10 quantiles.
  EXPECT_EQ(sp[0], 10u);
  EXPECT_EQ(sp[8], 90u);
}

TEST(SelectSplitters, SinglePartition) {
  const std::vector<std::uint64_t> samples{1, 2, 3};
  EXPECT_TRUE(select_splitters<std::uint64_t>(samples, 1).empty());
}

TEST(SelectSplittersWeighted, EqualWeightsMatchUnweighted) {
  std::vector<std::uint64_t> samples(100);
  std::iota(samples.begin(), samples.end(), 0);
  std::vector<WeightedSample<std::uint64_t>> weighted;
  for (auto s : samples) weighted.push_back({s, 3.0});
  const auto a = select_splitters<std::uint64_t>(samples, 10);
  const auto b = select_splitters_weighted<std::uint64_t>(weighted, 10);
  // Same quantile targets; boundary rounding may differ by one sample.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j)
    EXPECT_NEAR(static_cast<double>(a[j]), static_cast<double>(b[j]), 1.0);
}

TEST(SelectSplittersWeighted, HeavyShardDominatesSplitters) {
  // Shard A: keys 0..9 with weight 1000 each (a big shard, coarsely
  // sampled); shard B: keys 1000..1099 with weight 1 each (a tiny shard,
  // densely sampled). With 2 parts, the median splitter must fall inside
  // shard A's range, not at the unweighted sample median (~key 1000).
  std::vector<WeightedSample<std::uint64_t>> pool;
  for (std::uint64_t k = 0; k < 10; ++k) pool.push_back({k, 1000.0});
  for (std::uint64_t k = 1000; k < 1100; ++k) pool.push_back({k, 1.0});
  const auto sp = select_splitters_weighted<std::uint64_t>(pool, 2);
  ASSERT_EQ(sp.size(), 1u);
  EXPECT_LT(sp[0], 10u);
}

TEST(SelectSplittersWeighted, SharesSetTheTargets) {
  // 100 unit-weight samples 0..99 cut into parts of 3, 3 and 2 members
  // (AMS groups): splitter j is the sample whose cumulative weight reaches
  // shares[j] / shares[parts] of the total, 37.5 and 75 (keys 37 and 74),
  // not 1/3 and 2/3 of it (keys 33 and 66).
  std::vector<WeightedSample<std::uint64_t>> pool;
  for (std::uint64_t k = 0; k < 100; ++k) pool.push_back({k, 1.0});
  const std::vector<std::size_t> shares{0, 3, 6, 8};
  const auto sp = select_splitters_weighted<std::uint64_t>(pool, 3, {}, shares);
  EXPECT_EQ(sp, (std::vector<std::uint64_t>{37, 74}));
  EXPECT_EQ(select_splitters_weighted<std::uint64_t>(pool, 3),
            (std::vector<std::uint64_t>{33, 66}));
  // Equal shares reproduce the default targets.
  const std::vector<std::size_t> equal{0, 1, 2, 3};
  EXPECT_EQ(select_splitters_weighted<std::uint64_t>(pool, 3, {}, equal),
            select_splitters_weighted<std::uint64_t>(pool, 3));
}

TEST(SelectSplittersWeighted, EmptyPoolYieldsDefaults) {
  const auto sp = select_splitters_weighted<std::uint64_t>({}, 4);
  EXPECT_EQ(sp, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(SelectSplitters, UniformSamplesGiveUniformSplitters) {
  // Splitters of a uniform sample pool should be near the true quantiles.
  auto samples = random_vec(10000, 31, 1000000);
  std::sort(samples.begin(), samples.end());
  const auto sp = select_splitters<std::uint64_t>(samples, 8);
  for (std::size_t j = 0; j < sp.size(); ++j) {
    const double expected = 1000000.0 * static_cast<double>(j + 1) / 8.0;
    EXPECT_NEAR(static_cast<double>(sp[j]), expected, 25000.0);
  }
}

}  // namespace
}  // namespace pgxd::sort
