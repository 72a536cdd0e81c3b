// LSD (least-significant-digit) radix sort for unsigned integer keys —
// the local sort of the partitioned parallel radix baseline (Lee et al.),
// and a comparison point for the comparison-based kernels.
//
// Counting sort per digit, ping-ponging between the input and a scratch
// buffer that the caller owns, so one buffer can serve many sorts (the
// distributed sorter's step 1 passes one for every rank); the overload
// without one allocates its own. After an odd number of passes the two
// buffers trade places. Only the digits below `significant_bits` are
// processed, so the distributed baseline can skip the digits its
// partitioning already fixed.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace pgxd::sort {

struct RadixSortStats {
  unsigned passes = 0;
  std::uint64_t elements_moved = 0;
};

// Sorts `data` by its low `significant_bits` bits (default: all bits that
// are set anywhere in the input). Stable within equal digits.
template <typename Key>
RadixSortStats radix_sort(std::vector<Key>& data, std::vector<Key>& scratch,
                          unsigned significant_bits = 0,
                          unsigned pass_bits = 8) {
  static_assert(std::is_unsigned_v<Key>, "radix sort needs unsigned keys");
  PGXD_CHECK(pass_bits >= 1 && pass_bits <= 16);
  RadixSortStats stats;
  const std::size_t n = data.size();
  if (n < 2) return stats;

  if (significant_bits == 0) {
    Key all = 0;
    for (const auto& k : data) all |= k;
    significant_bits = all ? static_cast<unsigned>(std::bit_width(all)) : 1;
  }
  PGXD_CHECK(significant_bits <= sizeof(Key) * 8);

  const std::size_t buckets = std::size_t{1} << pass_bits;
  const Key digit_mask = static_cast<Key>(buckets - 1);
  scratch.resize(n);
  std::vector<std::size_t> count(buckets);

  Key* src = data.data();
  Key* dst = scratch.data();
  for (unsigned shift = 0; shift < significant_bits; shift += pass_bits) {
    std::fill(count.begin(), count.end(), 0);
    for (std::size_t i = 0; i < n; ++i)
      ++count[static_cast<std::size_t>((src[i] >> shift) & digit_mask)];
    // Skip a pass whose digit is constant (common in the high digits).
    bool trivial = false;
    for (std::size_t b = 0; b < buckets; ++b) {
      if (count[b] == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t c = count[b];
      count[b] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i)
      dst[count[static_cast<std::size_t>((src[i] >> shift) & digit_mask)]++] =
          src[i];
    std::swap(src, dst);
    ++stats.passes;
    stats.elements_moved += n;
  }
  // An odd pass count leaves the result in the scratch buffer: hand the
  // buffers over instead of copying it back.
  if (src != data.data()) data.swap(scratch);
  return stats;
}

template <typename Key>
RadixSortStats radix_sort(std::vector<Key>& data,
                          unsigned significant_bits = 0,
                          unsigned pass_bits = 8) {
  std::vector<Key> scratch;
  return radix_sort(data, scratch, significant_bits, pass_bits);
}

}  // namespace pgxd::sort
