// Tests for the LSD radix sort kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "sort/radix_sort.hpp"

namespace pgxd::sort {
namespace {

class RadixSortSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(RadixSortSweep, MatchesStdSort) {
  const auto [n, domain] = GetParam();
  Rng rng(n + domain);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = domain ? rng.bounded(domain) : rng.next();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  radix_sort(v);
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDomains, RadixSortSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 100, 10000, 100000),
                       ::testing::Values(0ULL, 2ULL, 256ULL, 1ULL << 20)));

TEST(RadixSort, PassCountTracksSignificantBits) {
  Rng rng(5);
  std::vector<std::uint64_t> v(10000);
  for (auto& x : v) x = rng.bounded(1 << 16);  // 16 significant bits
  const auto stats = radix_sort(v);
  EXPECT_LE(stats.passes, 2u);  // two 8-bit passes
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(RadixSort, SkipsConstantDigitPasses) {
  // All keys share the same low byte: the first pass is trivial.
  Rng rng(9);
  std::vector<std::uint64_t> v(5000);
  for (auto& x : v) x = (rng.bounded(1 << 8) << 8) | 0x42;
  const auto stats = radix_sort(v);
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(RadixSort, WideDigits) {
  Rng rng(11);
  std::vector<std::uint64_t> v(50000);
  for (auto& x : v) x = rng.bounded(1ULL << 32);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  radix_sort(v, /*significant_bits=*/0, /*pass_bits=*/11);
  EXPECT_EQ(v, expect);
}

TEST(RadixSort, SixtyFourBitKeys) {
  Rng rng(13);
  std::vector<std::uint64_t> v(30000);
  for (auto& x : v) x = rng.next();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  const auto stats = radix_sort(v);
  EXPECT_EQ(v, expect);
  EXPECT_LE(stats.passes, 8u);
}

TEST(RadixSort, AllEqual) {
  std::vector<std::uint64_t> v(1000, 77);
  const auto stats = radix_sort(v);
  EXPECT_EQ(stats.passes, 0u);  // every digit is constant
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](auto x) { return x == 77; }));
}

TEST(RadixSort, AlreadySorted) {
  std::vector<std::uint64_t> v(10000);
  std::iota(v.begin(), v.end(), 0);
  auto expect = v;
  radix_sort(v);
  EXPECT_EQ(v, expect);
}

TEST(RadixSort, Uint32Keys) {
  Rng rng(17);
  std::vector<std::uint32_t> v(20000);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next());
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  radix_sort(v);
  EXPECT_EQ(v, expect);
}

TEST(RadixSort, OddPassCountHandsOverTheScratchBuffer) {
  // 24-bit keys take three passes, so the sorted keys end in the scratch
  // buffer; the two vectors trade buffers instead of copying them back.
  Rng rng(23);
  std::vector<std::uint64_t> v(20000);
  for (auto& x : v) x = rng.bounded(1 << 24);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> scratch(v.size());
  const std::uint64_t* scratch_buf = scratch.data();
  const std::uint64_t* input_buf = v.data();
  const auto stats = radix_sort(v, scratch);
  EXPECT_EQ(stats.passes, 3u);
  EXPECT_EQ(stats.elements_moved, 3u * v.size());
  EXPECT_EQ(v, expect);
  EXPECT_EQ(v.data(), scratch_buf);
  EXPECT_EQ(scratch.data(), input_buf);
}

TEST(RadixSort, ScratchReuseAcrossCalls) {
  std::vector<std::uint64_t> scratch;
  Rng rng(19);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::uint64_t> v(1000 * (round + 1));
    for (auto& x : v) x = rng.bounded(1 << 20);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    radix_sort(v, scratch);
    EXPECT_EQ(v, expect);
  }
}

}  // namespace
}  // namespace pgxd::sort
