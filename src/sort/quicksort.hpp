// Quicksort with the standard production hardening — median-of-three pivots,
// insertion sort below a cutoff, recursion on the smaller side only, and a
// heapsort fallback past 2*log2(n) depth so adversarial inputs stay
// O(n log n) — plus three hot-path refinements:
//
//   * a branchless *block partition* (BlockQuicksort-style): comparison
//     results are buffered as offset indices in two small fixed-size blocks
//     and the misplaced pairs are swapped in a tight loop, so the partition
//     carries no data-dependent branch on the comparison outcome (the branch
//     mispredictions of a Hoare loop on random keys are what dominate its
//     runtime);
//   * an *equal-elements fast path*: when the chosen pivot compares equal to
//     the predecessor of the current range (the element just left of it,
//     already in final position), the whole range is known to start at the
//     pivot value, and one left-binding partition pass peels off the entire
//     run of duplicates in O(n) instead of recursing on it — duplicate-heavy
//     inputs (the paper's right-skewed distribution, Table II) sort in
//     O(n log #distinct);
//   * a *vectorized classify step* for the block partition: for raw
//     uint64_t keys under the default ordering, the per-block offset fill
//     runs as SIMD compare + compress-store (sort/simd_partition.hpp),
//     runtime-dispatched (AVX2 / SSE4.2 / scalar) so portable and
//     sanitizer builds are unaffected.
//
// Only the vectorized step can be switched off (QuicksortConfig): its scalar
// classify loop is the only path for every other key type, and the switch
// lets tests and benches run it on uint64_t keys. This is the per-thread
// local sort of the paper's step (1).
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/assert.hpp"
#include "sort/comparator.hpp"
#include "sort/simd_partition.hpp"

namespace pgxd::sort {

inline constexpr std::size_t kInsertionCutoff = 24;

// Elements classified per partition block; offsets must fit in uint8_t.
inline constexpr std::size_t kPartitionBlock = 64;

struct QuicksortConfig {
  // Vectorize the block classify loops (sort/simd_partition.hpp) when the
  // host supports it and the keys are raw uint64_t under the default
  // ordering; false forces the scalar loops (attribution benches, exotic
  // hosts).
  bool simd_partition = true;
};

// Straight insertion sort; the base case for quicksort.
template <typename T, typename Comp = Less>
void insertion_sort(std::span<T> data, Comp comp = {}) {
  for (std::size_t i = 1; i < data.size(); ++i) {
    T value = std::move(data[i]);
    std::size_t j = i;
    while (j > 0 && comp(value, data[j - 1])) {
      data[j] = std::move(data[j - 1]);
      --j;
    }
    data[j] = std::move(value);
  }
}

namespace detail {

// Sorts {a, b, c} in place and leaves the median in b.
template <typename T, typename Comp>
void median_of_three(T& a, T& b, T& c, Comp comp) {
  if (comp(b, a)) std::swap(a, b);
  if (comp(c, b)) {
    std::swap(b, c);
    if (comp(b, a)) std::swap(a, b);
  }
}

// Pivot selection shared by both partition kernels: sorts data[mid], data[0],
// data[n-1] so the median lands at data[0] (the pivot slot).
template <typename T, typename Comp>
void pivot_to_front(std::span<T> data, Comp comp) {
  const std::size_t n = data.size();
  median_of_three(data[n / 2], data[0], data[n - 1], comp);
}

// Branchless block partition around the pivot at data[0] (BlockQuicksort /
// pdqsort technique): on return the pivot sits at the returned index,
// everything left of it is < pivot and everything right of it is >= pivot.
// The pivot is excluded from both sides, so recursion always makes
// progress. Each block pass
// writes candidate offsets unconditionally and advances the count by the
// comparison result, so the comparison never feeds a branch; the swap pass
// then pairs misplaced elements from both ends.
template <typename T, typename Comp>
std::size_t partition_right_block(std::span<T> data, Comp comp,
                                  [[maybe_unused]] simd::PartitionIsa isa) {
  const std::size_t n = data.size();
  const T pivot = data[0];

  std::uint8_t offs_l[kPartitionBlock];
  std::uint8_t offs_r[kPartitionBlock];
  // Partition region: [l, r). Invariant: [1, l) < pivot, [r, n) >= pivot.
  // A block with pending offsets ([l, l+kPartitionBlock) when nl > 0,
  // [r-kPartitionBlock, r) when nr > 0) is classified but not yet swapped.
  std::size_t l = 1;
  std::size_t r = n;
  std::size_t nl = 0, nr = 0;  // pending offsets per side
  std::size_t sl = 0, sr = 0;  // consumed prefix of each offset buffer

  // Classify one left-side block starting at l: ascending offsets of
  // elements >= pivot (must move right). SIMD compare + compress-store when
  // the kernels apply, the scalar unconditional-write loop otherwise.
  const auto fill_left = [&](std::size_t count) {
    sl = 0;
#if PGXD_SIMD_PARTITION_X86
    if constexpr (simd::kSimdPartitionKeys<T, Comp>) {
      if (isa != simd::PartitionIsa::kScalar) {
        nl = simd::classify_ge(isa, data.data() + l, count, pivot, offs_l);
        return;
      }
    }
#endif
    for (std::size_t i = 0; i < count; ++i) {
      offs_l[nl] = static_cast<std::uint8_t>(i);
      nl += !comp(data[l + i], pivot);
    }
  };
  // Classify one right-side block ending at r (scanned leftwards):
  // ascending offsets i with data[r - 1 - i] < pivot (must move left).
  const auto fill_right = [&](std::size_t count) {
    sr = 0;
#if PGXD_SIMD_PARTITION_X86
    if constexpr (simd::kSimdPartitionKeys<T, Comp>) {
      if (isa != simd::PartitionIsa::kScalar) {
        nr = simd::classify_lt_rev(isa, data.data() + r, count, pivot,
                                   offs_r);
        return;
      }
    }
#endif
    for (std::size_t i = 0; i < count; ++i) {
      offs_r[nr] = static_cast<std::uint8_t>(i);
      nr += comp(data[r - 1 - i], pivot);
    }
  };

  const auto swap_pending = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      std::swap(data[l + offs_l[sl + i]], data[r - 1 - offs_r[sr + i]]);
    nl -= count;
    nr -= count;
    sl += count;
    sr += count;
  };

  while (r - l > 2 * kPartitionBlock) {
    if (nl == 0) fill_left(kPartitionBlock);
    if (nr == 0) fill_right(kPartitionBlock);
    swap_pending(std::min(nl, nr));
    if (nl == 0) l += kPartitionBlock;
    if (nr == 0) r -= kPartitionBlock;
  }

  // Final (possibly short) blocks. At most one side still has pending
  // offsets here (swap_pending zeroes the smaller side every round).
  PGXD_DCHECK(nl == 0 || nr == 0);
  const std::size_t unknown = (r - l) - ((nl | nr) ? kPartitionBlock : 0);
  std::size_t lsz = 0, rsz = 0;
  if (nl > 0) {
    lsz = kPartitionBlock;
    rsz = unknown;
  } else if (nr > 0) {
    lsz = unknown;
    rsz = kPartitionBlock;
  } else {
    lsz = unknown / 2;
    rsz = unknown - lsz;
  }
  if (nl == 0 && lsz > 0) fill_left(lsz);
  if (nr == 0 && rsz > 0) fill_right(rsz);
  swap_pending(std::min(nl, nr));
  // A fully-fixed final block joins its side's finished zone.
  if (nl == 0) l += lsz;
  if (nr == 0) r -= rsz;

  // Stragglers on one side: fold them into the boundary. Offsets are
  // processed from the highest down (left side) / lowest position up (right
  // side), so each swap partner is either a correctly-placed element or the
  // straggler itself (a harmless self-swap).
  std::size_t cut;
  if (nl > 0) {
    while (nl > 0) {
      --nl;
      std::swap(data[l + offs_l[sl + nl]], data[--r]);
    }
    cut = r;
  } else if (nr > 0) {
    while (nr > 0) {
      --nr;
      std::swap(data[r - 1 - offs_r[sr + nr]], data[l]);
      ++l;
    }
    cut = l;
  } else {
    PGXD_DCHECK(l == r);
    cut = l;
  }

  // Place the pivot at the boundary; exclude it from both sides.
  const std::size_t pivot_pos = cut - 1;
  if (pivot_pos != 0) data[0] = std::move(data[pivot_pos]);
  data[pivot_pos] = pivot;
  return pivot_pos;
}

// Left-binding partition around the pivot at data[0]: elements *equal* to
// the pivot gather on the left, elements greater on the right; returns the
// pivot's final index q, with [0, q] all == pivot. Precondition (enforced by
// the caller): the pivot is the minimum of the range, so "not greater" means
// "equal". This is the duplicate fast path — the whole equal run is done in
// one pass and never recursed into.
template <typename T, typename Comp>
std::size_t partition_left(std::span<T> data, Comp comp) {
  const std::size_t n = data.size();
  T pivot = std::move(data[0]);
  std::size_t first = 0;
  std::size_t last = n;
  // Scan from the right for an element <= pivot. Slot 0 held the pivot, so
  // it acts as an unconditional stop (== pivot) without reading the
  // moved-from value.
  for (;;) {
    --last;
    if (last == 0 || !comp(pivot, data[last])) break;
  }
  if (last == n - 1) {
    // The scan stopped immediately: no element > pivot is known to the
    // right, so the left scan needs bounds checks.
    while (first < last && !comp(pivot, data[++first])) {
    }
  } else {
    // data[last + 1] > pivot acts as the left scan's sentinel.
    while (!comp(pivot, data[++first])) {
    }
  }
  while (first < last) {
    std::swap(data[first], data[last]);
    while (comp(pivot, data[--last])) {
    }
    while (!comp(pivot, data[++first])) {
    }
  }
  const std::size_t pivot_pos = last;
  if (pivot_pos != 0) data[0] = std::move(data[pivot_pos]);
  data[pivot_pos] = std::move(pivot);
  return pivot_pos;
}

// `pred` points at the element immediately left of `data` in the enclosing
// buffer once that element is in its final sorted position (null for the
// leftmost range). Since pred <= everything in data, a pivot equal to pred
// is the range minimum — the trigger for the equal-elements fast path.
template <typename T, typename Comp>
void introsort_loop(std::span<T> data, Comp comp, int depth_budget,
                    const T* pred, simd::PartitionIsa isa) {
  while (data.size() > kInsertionCutoff) {
    if (depth_budget-- == 0) {
      std::make_heap(data.begin(), data.end(), comp);
      std::sort_heap(data.begin(), data.end(), comp);
      return;
    }
    pivot_to_front(data, comp);
    if (pred != nullptr && !comp(*pred, data[0])) {
      // Pivot == predecessor == range minimum: peel the duplicate run.
      const std::size_t q = partition_left(data, comp);
      pred = &data[q];
      data = data.subspan(q + 1);
      continue;
    }
    const std::size_t cut = partition_right_block(data, comp, isa);
    // The pivot at `cut` is final: recurse on the smaller side, iterate on
    // the larger, threading the correct predecessor into each.
    std::span<T> left = data.first(cut);
    std::span<T> right = data.subspan(cut + 1);
    if (left.size() < right.size()) {
      introsort_loop(left, comp, depth_budget, pred, isa);
      pred = &data[cut];
      data = right;
    } else {
      introsort_loop(right, comp, depth_budget, &data[cut], isa);
      data = left;
    }
  }
  insertion_sort(data, comp);
}

}  // namespace detail

template <typename T, typename Comp = Less>
void quicksort(std::span<T> data, Comp comp = {},
               const QuicksortConfig& cfg = {}) {
  if (data.size() < 2) return;
  // Resolve the partition ISA once per sort: a CPUID-cached probe when the
  // SIMD kernels apply to (T, Comp) and the config wants them, else scalar.
  simd::PartitionIsa isa = simd::PartitionIsa::kScalar;
  if constexpr (simd::kSimdPartitionKeys<T, Comp>) {
    if (cfg.simd_partition) isa = simd::partition_isa();
  }
  const int depth_budget = 2 * static_cast<int>(std::bit_width(data.size()));
  detail::introsort_loop(data, comp, depth_budget,
                         static_cast<const T*>(nullptr), isa);
}

}  // namespace pgxd::sort
