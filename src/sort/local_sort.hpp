// Strategy-selectable local sort — the in-node kernel of the paper's step
// (1), promoted from "quicksort only" to a comparison/radix hybrid.
//
// For unsigned integer keys under the default ordering the LSD radix sort
// (sort/radix_sort.hpp) is distribution-based: passes * O(n) instead of
// O(n log n), with the pass count set by the key *width actually in use*
// (an OR-scan of the data), not the declared type width. Whether that beats
// the comparison sort depends on n and that width, so kAdaptive applies a
// measured crossover:
//
//   radix wins  <=>  passes * kRadixNsPerElemPass
//                      < log2(n) * kComparisonNsPerElemLevel
//
// with the constants measured on the reference machine (see
// bench/kernels_local_sort.cpp): the comparison sort costs ~1.6 ns per
// element per log2(n) level; a radix pass (count + scatter) costs ~3.8 ns
// per element at cache-exceeding sizes. Examples at those constants:
// full-width 64-bit keys cross over around n = 2^19; 32-bit-wide keys (4
// passes) win everywhere past the minimum size.
//
// Keys that are signed, non-integral, or sorted by a custom comparator
// always take the comparison path — radix on raw bits would sort a
// different order than the one requested.
//
// The radix path's scatter buffer comes from the caller: the distributed
// sorter passes one buffer for every rank's step 1, so a run allocates one
// scatter buffer instead of one per shard. A call without one uses its own.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <bit>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "sort/comparator.hpp"
#include "sort/quicksort.hpp"
#include "sort/radix_sort.hpp"

namespace pgxd::sort {

// Local-sort strategy (SortConfig::local_sort).
enum class LocalSortAlgo {
  kComparison,  // introsort with the (SIMD) block partition
  kRadix,       // LSD radix whenever the keys are radix-eligible
  kAdaptive,    // per-shard comparison-vs-radix crossover (the default)
};

struct LocalSortStats {
  bool used_radix = false;
  unsigned radix_passes = 0;      // non-trivial counting passes executed
  unsigned significant_bits = 0;  // OR-scan key width (radix-eligible only)
};

// Measured on the reference machine (bench/kernels_local_sort.cpp):
// comparison sort ns per element per log2(n) level, and radix ns per
// element per 8-bit pass at cache-exceeding sizes.
inline constexpr double kComparisonNsPerElemLevel = 1.6;
inline constexpr double kRadixNsPerElemPass = 3.8;
// Below this the comparison sort's cache residency wins regardless.
inline constexpr std::size_t kRadixMinN = std::size_t{1} << 13;

// Sorts `data` with the selected strategy; `comp` must order ascending for
// the radix path to be eligible (enforced by requiring exactly `Less`).
// `radix_scratch`, when given, is the radix path's scatter buffer: it is
// resized to the shard, and after an odd pass count it trades storage with
// `data` (see radix_sort), so equal shards sorted in turn reuse it.
template <typename Key, typename Comp = Less>
LocalSortStats local_sort(std::vector<Key>& data, LocalSortAlgo algo,
                          Comp comp = {}, const QuicksortConfig& qcfg = {},
                          std::vector<Key>* radix_scratch = nullptr) {
  LocalSortStats stats;
  const std::size_t n = data.size();
  if constexpr (std::is_unsigned_v<Key> && std::is_same_v<Comp, Less>) {
    if (algo != LocalSortAlgo::kComparison && n >= 2) {
      Key all = 0;
      for (const Key& k : data) all |= k;
      const unsigned bits =
          all != 0 ? static_cast<unsigned>(std::bit_width(all)) : 1;
      const unsigned passes = (bits + 7) / 8;
      const bool radix =
          algo == LocalSortAlgo::kRadix ||
          (n >= kRadixMinN &&
           static_cast<double>(passes) * kRadixNsPerElemPass <
               static_cast<double>(std::bit_width(n - 1)) *
                   kComparisonNsPerElemLevel);
      if (radix) {
        std::vector<Key> own;
        const RadixSortStats rs =
            radix_sort(data, radix_scratch ? *radix_scratch : own, bits);
        stats.used_radix = true;
        stats.radix_passes = rs.passes;
        stats.significant_bits = bits;
        return stats;
      }
    }
  }
  quicksort(std::span<Key>(data), comp, qcfg);
  return stats;
}

}  // namespace pgxd::sort
