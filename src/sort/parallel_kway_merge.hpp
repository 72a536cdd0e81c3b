// Single-pass parallel k-way merge. Its span engine (kway_merge_runs) is
// the one merge the distributed sorter's step 6 runs on the host, in one
// range, whichever strategy the cost model charges.
//
// The Fig. 2 pairwise tree (sort/balanced_merge.hpp) moves every element
// once per level, ceil(log2 R) times: at R = 32 runs that is 5 full passes
// over the partition. Here every element is moved exactly once:
//
//   1. *Splitter search*: the merged output [0, n) is cut into near-equal
//      per-thread ranges. Each interior boundary is located by
//      multisequence selection (kway_select): a value-pivot binary search
//      across all R runs at once, the classic multiway-partition algorithm
//      (Varman et al.; also __gnu_parallel::multiseq_partition).
//   2. *Per-range loser trees*: each range merges independently with the
//      tournament engine from sort/kway_merge.hpp, paying one successor
//      check plus, unless the next key of the element's run is equal,
//      log2(R) comparisons, but only ONE move per element.
//
// The engine (kway_merge_runs) reads its runs as spans and emits each
// element's (run, index) in merged order, so the caller writes every
// element once, wherever it belongs: the distributed sorter reads the
// exchange views and writes output items (or, at AMS level 1, its next
// sorted run and the run's origins). The wrappers below merge contiguous
// buffers with it. The ranges run one after another on the calling thread.
// The sorter asks for one range under every strategy: the cost model
// (runtime/cost_model.hpp) charges kParallelKway's splitter search and
// per-thread ranges from n, the run count and the thread count, not from a
// host run. The range split runs in the unit tests and in the repo
// benchmark's step-6 replay (benchmark/pgxd_bench.cpp).
//
// Boundary cursors deal equal keys to the lower run first — the same tie
// rule as the loser tree, merge_into and the Fig. 2 tree — so the
// concatenated ranges are *bit-identical* to the stable sequential merge
// and to the Fig. 2 tree, permutation plane included, and the sorter's
// output does not depend on the strategy it charges.
// tests/parallel_kway_merge_test.cpp holds that property under a randomized
// sweep.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "sort/comparator.hpp"
#include "sort/kway_merge.hpp"

namespace pgxd::sort {

struct ParallelKwayMergeStats {
  std::size_t runs = 0;
  std::size_t ranges = 1;          // independent loser trees
  std::uint64_t comparisons = 0;   // across all ranges
  std::uint64_t select_rounds = 0; // pivot rounds over all splitter searches
};

// Multisequence selection: finds per-run cursors that split the stable
// k-way merge of the sorted `runs` at global rank `k` — cursor[r] elements
// of run r belong to the merged prefix of length k, sum(cursor[r]) == k.
// Equal keys on the boundary are dealt to the lower run first, matching the
// loser tree's tie rule, so the prefix is exactly the first k elements of
// the stable merge.
//
// Value-pivot binary search: keep a candidate window [lo[r], hi[r]) per
// run, draw the pivot from the largest window, rank it exactly across all
// runs, and discard the side of every window the rank rules out. Every copy
// of the true boundary value stays inside the windows, and the pivot's
// window strictly shrinks each round, so the terminating branch (count_lt
// <= k <= count_le) is always reached. O(R log n) per round, O(log n)
// rounds in practice.
//
// Each round's lower/upper_bound runs inside the run's window only, and
// that is exact: everything before lo[r] is <= the largest pivot ruled
// below the boundary so far, everything from hi[r] on is >= the smallest
// pivot ruled above it, and the new pivot lies strictly between the two.
// An emptied window sits where every earlier element is smaller than the
// pivot and every later one larger. So the counts, cursors and rounds are
// those of a search over whole runs.
template <typename K, typename Comp = Less>
std::vector<std::size_t> kway_select(std::span<const std::span<const K>> runs,
                                     std::size_t k, Comp comp = {},
                                     std::uint64_t* rounds = nullptr) {
  const std::size_t nruns = runs.size();
  std::vector<std::size_t> cur(nruns, 0);
  std::size_t n = 0;
  for (const auto& run : runs) n += run.size();
  PGXD_CHECK(k <= n);
  if (k == 0) return cur;
  if (k == n) {
    for (std::size_t r = 0; r < nruns; ++r) cur[r] = runs[r].size();
    return cur;
  }

  std::vector<std::size_t> lo(nruns, 0), hi(nruns), lb(nruns), ub(nruns);
  for (std::size_t r = 0; r < nruns; ++r) hi[r] = runs[r].size();
  for (;;) {
    // Pivot from the largest window (deterministic: ties -> lowest run).
    std::size_t p = nruns;
    std::size_t best = 0;
    for (std::size_t r = 0; r < nruns; ++r) {
      const std::size_t width = hi[r] - lo[r];
      if (width > best) {
        best = width;
        p = r;
      }
    }
    // The boundary value always survives inside some window (see above), so
    // the windows cannot all drain before the terminating branch fires.
    PGXD_CHECK_MSG(p < nruns, "kway_select: candidate windows drained");
    if (rounds != nullptr) ++*rounds;
    const K pivot = runs[p][lo[p] + (hi[p] - lo[p]) / 2];

    // Exact global rank of the pivot value: count_lt strictly-smaller
    // elements, count_le smaller-or-equal.
    std::size_t count_lt = 0, count_le = 0;
    for (std::size_t r = 0; r < nruns; ++r) {
      const K* base = runs[r].data();
      lb[r] = static_cast<std::size_t>(
          std::lower_bound(base + lo[r], base + hi[r], pivot, comp) - base);
      ub[r] = static_cast<std::size_t>(
          std::upper_bound(base + lb[r], base + hi[r], pivot, comp) - base);
      count_lt += lb[r];
      count_le += ub[r];
    }
    if (k < count_lt) {
      // Boundary < pivot: nothing >= pivot can sit on the boundary.
      for (std::size_t r = 0; r < nruns; ++r) hi[r] = lb[r];
    } else if (k > count_le) {
      // Boundary > pivot: nothing <= pivot can sit on the boundary.
      for (std::size_t r = 0; r < nruns; ++r) lo[r] = ub[r];
    } else {
      // The pivot value spans the boundary: take every strictly-smaller
      // element, then deal the k - count_lt equal keys to the lowest runs
      // first (the loser tree's tie order).
      std::size_t rem = k - count_lt;
      for (std::size_t r = 0; r < nruns; ++r) {
        const std::size_t take = std::min(ub[r] - lb[r], rem);
        cur[r] = lb[r] + take;
        rem -= take;
      }
      PGXD_DCHECK(rem == 0);
      return cur;
    }
  }
}

// Minimum output elements per range; below this, splitting costs more than
// it saves.
inline constexpr std::size_t kMinMergePiece = 4096;

namespace detail {

// Output ranges for one parallel k-way merge: `want` ranges clamped so no
// range merges fewer than kMinMergePiece elements.
inline std::size_t clamp_kway_ranges(std::size_t want, std::size_t n) {
  want = std::max<std::size_t>(1, want);
  return std::min(want, std::max<std::size_t>(1, n / kMinMergePiece));
}

}  // namespace detail

// The span engine: merges the sorted `runs`, cut into `ranges` output
// ranges by splitter search, and calls emit(r, i) for every element in
// ascending merged order, with runs[r][i] the element. The ranges run one
// after another on the calling thread.
template <typename K, typename Comp, typename Emit>
ParallelKwayMergeStats kway_merge_runs(std::span<const std::span<const K>> runs,
                                       Comp comp, std::size_t ranges,
                                       Emit&& emit) {
  ParallelKwayMergeStats stats;
  const std::size_t nruns = runs.size();
  stats.runs = nruns;
  std::size_t n = 0;
  for (const auto& run : runs) n += run.size();
  if (n == 0) return stats;
  if (nruns == 1) {
    for (std::size_t i = 0; i < n; ++i) emit(std::size_t{0}, i);
    return stats;
  }

  ranges = detail::clamp_kway_ranges(ranges, n);
  stats.ranges = ranges;
  // Per-range starting cursors (row-major ranges x R) for output
  // boundaries at n*i/ranges.
  std::vector<std::size_t> cursors(ranges * nruns, 0);
  for (std::size_t i = 1; i < ranges; ++i) {
    const auto cut =
        kway_select<K>(runs, n * i / ranges, comp, &stats.select_rounds);
    std::copy(cut.begin(), cut.end(), cursors.begin() + i * nruns);
  }
  for (std::size_t i = 0; i < ranges; ++i) {
    const std::size_t k0 = n * i / ranges;
    const std::size_t k1 = n * (i + 1) / ranges;
    stats.comparisons += kway_merge_range<K>(
        runs, std::span<std::size_t>(cursors.data() + i * nruns, nruns),
        k1 - k0, comp, emit);
  }
  return stats;
}

// Single-pass parallel k-way merge of full records: merges the sorted runs
// of `src` described by `bounds` into `dst` (resized to src.size()), cut
// into `ranges` output ranges (see kway_merge_runs).
template <typename T, typename Comp = Less>
ParallelKwayMergeStats parallel_kway_merge(const std::vector<T>& src,
                                           const std::vector<std::size_t>& bounds,
                                           std::vector<T>& dst, Comp comp = {},
                                           std::size_t ranges = 1) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.front() == 0);
  PGXD_CHECK(bounds.back() == src.size());
  dst.resize(src.size());
  const auto runs = runs_of<T>(src.data(), bounds);
  T* out = dst.data();
  return kway_merge_runs<T>(
      runs, comp, ranges,
      [&](std::size_t r, std::size_t i) { *out++ = runs[r][i]; });
}

// SoA variant over contiguous planes: bare keys plus the compact u32
// permutation move through ONE pass (sizeof(Key) + 4 bytes per element,
// once, where a pairwise tree moves them once per level). The merged
// result always lands in (key_out, perm_out); there is no ping-pong and no
// copy-back.
template <typename K, typename Comp = Less>
ParallelKwayMergeStats parallel_kway_merge_soa(
    const std::vector<K>& keys, const std::vector<std::uint32_t>& perm,
    const std::vector<std::size_t>& bounds, std::vector<K>& key_out,
    std::vector<std::uint32_t>& perm_out, Comp comp = {},
    std::size_t ranges = 1) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.front() == 0);
  PGXD_CHECK(bounds.back() == keys.size());
  PGXD_CHECK(perm.size() == keys.size());
  key_out.resize(keys.size());
  perm_out.resize(keys.size());
  const auto runs = runs_of<K>(keys.data(), bounds);
  K* kout = key_out.data();
  std::uint32_t* pout = perm_out.data();
  return kway_merge_runs<K>(runs, comp, ranges,
                            [&](std::size_t r, std::size_t i) {
                              *kout++ = runs[r][i];
                              *pout++ = perm[bounds[r] + i];
                            });
}

// The signature from when the merge took a thread pool in this slot.
// benchmark/pgxd_bench.cpp still passes nullptr there, and the benchmark's
// sources change only together with the benchmark. Retire this overload
// with them.
template <typename K, typename Comp>
ParallelKwayMergeStats parallel_kway_merge_soa(
    const std::vector<K>& keys, const std::vector<std::uint32_t>& perm,
    const std::vector<std::size_t>& bounds, std::vector<K>& key_out,
    std::vector<std::uint32_t>& perm_out, Comp comp, std::nullptr_t,
    std::size_t ranges) {
  return parallel_kway_merge_soa(keys, perm, bounds, key_out, perm_out, comp,
                                 ranges);
}

}  // namespace pgxd::sort
