// The paper's "handler" for balanced merging (Fig. 2).
//
// Input: one contiguous buffer holding R sorted runs (run r occupies
// [bounds[r], bounds[r+1])). Runs are merged pairwise per level — run 1 into
// run 0, run 3 into run 2, ... — so when the runs start equal-sized (one per
// worker thread), every merge at every level joins partners of (almost)
// equal size. Levels ping-pong between the data buffer and one scratch
// buffer of equal size.
//
// The merges run one after another on the calling thread; the cost model
// (runtime/cost_model.hpp) charges the tree as the paper's threads would
// run it, each level's merges in parallel.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sort/comparator.hpp"
#include "sort/merge.hpp"

namespace pgxd::sort {

// One merge at one level of the Fig. 2 tree: runs `left` and `right` of the
// previous level combine into one run.
struct MergePair {
  std::size_t left;
  std::size_t right;
};

// The full merge schedule for `runs` initial runs: schedule[l] lists the
// pairs merged at level l. A run with no partner at a level carries over.
// For runs == 8 this reproduces Fig. 2 exactly:
//   level 0: (0,1) (2,3) (4,5) (6,7); level 1: (0,2) (4,6); level 2: (0,4)
// where pair indices are positions in the *previous* level's run list.
inline std::vector<std::vector<MergePair>> merge_schedule(std::size_t runs) {
  std::vector<std::vector<MergePair>> levels;
  std::size_t remaining = runs;
  while (remaining > 1) {
    std::vector<MergePair> level;
    for (std::size_t i = 0; i + 1 < remaining; i += 2)
      level.push_back(MergePair{i, i + 1});
    levels.push_back(std::move(level));
    remaining = remaining / 2 + remaining % 2;
  }
  return levels;
}

// Statistics the cost model and tests consume.
struct BalancedMergeStats {
  std::size_t levels = 0;
  std::size_t merges = 0;
  std::size_t elements_moved = 0;  // total elements written across levels
};

// Merges the runs described by `bounds` (size R+1, bounds[0] == 0,
// bounds[R] == data.size(), non-decreasing) into fully sorted order in
// `data`, using `scratch` (resized to data.size()) as the ping-pong buffer.
// Returns per-run statistics.
template <typename T, typename Comp = Less>
BalancedMergeStats balanced_merge(std::vector<T>& data,
                                  std::vector<std::size_t> bounds,
                                  std::vector<T>& scratch, Comp comp = {}) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.front() == 0);
  PGXD_CHECK(bounds.back() == data.size());
  BalancedMergeStats stats;
  if (bounds.size() <= 2) return stats;  // zero or one run: already sorted

  scratch.resize(data.size());
  T* src = data.data();
  T* dst = scratch.data();

  std::vector<std::size_t> next_bounds;
  while (bounds.size() > 2) {
    const std::size_t run_count = bounds.size() - 1;
    next_bounds.clear();
    next_bounds.reserve(run_count / 2 + 2);
    next_bounds.push_back(0);

    for (std::size_t r = 0; r + 1 < run_count; r += 2) {
      const std::size_t lo = bounds[r];
      const std::size_t mid = bounds[r + 1];
      const std::size_t hi = bounds[r + 2];
      merge_into<T, Comp>(std::span<const T>(src + lo, mid - lo),
                          std::span<const T>(src + mid, hi - mid),
                          std::span<T>(dst + lo, hi - lo), comp);
      next_bounds.push_back(hi);
      ++stats.merges;
      stats.elements_moved += hi - lo;
    }
    if (run_count % 2 == 1) {
      // Odd tail: copy through so the ping-pong buffers stay consistent.
      const std::size_t lo = bounds[run_count - 1];
      const std::size_t hi = bounds[run_count];
      std::copy(src + lo, src + hi, dst + lo);
      next_bounds.push_back(hi);
      stats.elements_moved += hi - lo;
    }

    std::swap(src, dst);
    bounds.swap(next_bounds);
    ++stats.levels;
  }

  if (src != data.data()) {
    // Result landed in scratch after an odd number of levels.
    std::copy(src, src + data.size(), data.data());
  }
  return stats;
}

}  // namespace pgxd::sort
