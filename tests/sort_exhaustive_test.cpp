// Exhaustive small-input validation of the local sort kernels: every
// permutation of n <= 8 distinct elements and every 0/1 sequence of length
// <= 14 must sort correctly. The 0-1 sequences are the classic
// comparator-network completeness check; permutations catch index and
// boundary bugs in partitioning and the insertion-sort base case.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "sort/quicksort.hpp"
#include "sort/radix_sort.hpp"

namespace pgxd::sort {
namespace {

TEST(QuicksortExhaustive, AllPermutationsUpTo8) {
  for (std::size_t n = 0; n <= 8; ++n) {
    std::vector<int> base(n);
    std::iota(base.begin(), base.end(), 0);
    std::vector<int> perm = base;
    do {
      auto v = perm;
      quicksort(std::span<int>(v));
      ASSERT_EQ(v, base) << "n=" << n;
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(QuicksortExhaustive, AllZeroOneSequencesUpTo14) {
  for (std::size_t n = 1; n <= 14; ++n) {
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::vector<int> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = (bits >> i) & 1;
      auto expect = v;
      std::sort(expect.begin(), expect.end());
      quicksort(std::span<int>(v));
      ASSERT_EQ(v, expect) << "n=" << n << " bits=" << bits;
    }
  }
}

TEST(RadixSortExhaustive, AllPermutationsUpTo8) {
  for (std::size_t n = 0; n <= 8; ++n) {
    std::vector<std::uint64_t> base(n);
    std::iota(base.begin(), base.end(), 0);
    std::vector<std::uint64_t> perm = base;
    do {
      auto v = perm;
      radix_sort(v);
      ASSERT_EQ(v, base) << "n=" << n;
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

// Insertion sort is quicksort's base case; test it exhaustively too (it is
// also used standalone for tiny inputs).
TEST(InsertionSortExhaustive, AllPermutationsUpTo7) {
  for (std::size_t n = 0; n <= 7; ++n) {
    std::vector<int> base(n);
    std::iota(base.begin(), base.end(), 0);
    std::vector<int> perm = base;
    do {
      auto v = perm;
      insertion_sort(std::span<int>(v));
      ASSERT_EQ(v, base) << "n=" << n;
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

}  // namespace
}  // namespace pgxd::sort
