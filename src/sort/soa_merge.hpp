// Structure-of-arrays variant of the Fig. 2 balanced merge for the
// distributed final merge (paper step 6).
//
// Merging full Item{key, provenance} records through every tree level would
// move sizeof(Item) bytes per element per level. Here the runs are
// split into a Key array and a compact u32 permutation: each pairwise merge
// moves the keys and carries the permutation alongside, so each level
// moves only sizeof(Key) + 4 bytes per element, and provenance is
// reconstructed once at the end from the permutation (see the caller in
// src/core/distributed_sort.hpp). The result is reported in place — a
// `in_scratch` flag says which buffer holds it — so the last level never
// pays a staging copy-back; the reconstruction pass reads from wherever the
// data landed and writes directly into the output partition.
//
// Stability: ties resolve toward the run with the lower index (same
// convention as merge_into), so with an identity-initialized permutation,
// equal keys keep ascending permutation values throughout.
//
// Like balanced_merge, the merges run one after another on the calling
// thread; the cost model charges each level as parallel.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/comparator.hpp"

namespace pgxd::sort {

// Stable sequential merge of the key runs a[0..a_n) and b[0..b_n) into
// out_key, moving the permutation in lockstep.
template <typename K, typename Comp = Less>
void merge_soa_into(const K* a_key, const std::uint32_t* a_perm,
                    std::size_t a_n, const K* b_key,
                    const std::uint32_t* b_perm, std::size_t b_n, K* out_key,
                    std::uint32_t* out_perm, Comp comp = {}) {
  std::size_t i = 0, j = 0, k = 0;
  while (i < a_n && j < b_n) {
    if (comp(b_key[j], a_key[i])) {
      out_key[k] = b_key[j];
      out_perm[k++] = b_perm[j++];
    } else {
      out_key[k] = a_key[i];
      out_perm[k++] = a_perm[i++];
    }
  }
  for (; i < a_n; ++i, ++k) {
    out_key[k] = a_key[i];
    out_perm[k] = a_perm[i];
  }
  for (; j < b_n; ++j, ++k) {
    out_key[k] = b_key[j];
    out_perm[k] = b_perm[j];
  }
}

struct SoaMergeResult {
  BalancedMergeStats stats;
  // True when the merged result ended up in the scratch buffers (odd number
  // of levels). There is deliberately no copy-back: the caller reads the
  // result from whichever pair of buffers holds it.
  bool in_scratch = false;
};

// Fig. 2 balanced merge over SoA runs: `keys`/`perm` hold R sorted runs at
// [bounds[r], bounds[r+1]); `key_scratch`/`perm_scratch` are resized to
// match and serve as the ping-pong buffers. On return the fully merged
// result lives in (keys, perm) or in (key_scratch, perm_scratch) per
// `in_scratch`. `perm` is typically identity-initialized by the caller; this
// routine only permutes it alongside the keys.
template <typename K, typename Comp = Less>
SoaMergeResult balanced_merge_soa(std::vector<K>& keys,
                                  std::vector<std::uint32_t>& perm,
                                  std::vector<std::size_t> bounds,
                                  std::vector<K>& key_scratch,
                                  std::vector<std::uint32_t>& perm_scratch,
                                  Comp comp = {}) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.front() == 0);
  PGXD_CHECK(bounds.back() == keys.size());
  PGXD_CHECK(perm.size() == keys.size());
  SoaMergeResult result;
  if (bounds.size() <= 2) return result;

  key_scratch.resize(keys.size());
  perm_scratch.resize(perm.size());
  const K* const key_home = keys.data();
  K* src_key = keys.data();
  K* dst_key = key_scratch.data();
  std::uint32_t* src_perm = perm.data();
  std::uint32_t* dst_perm = perm_scratch.data();

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
      merge_soa_into<K, Comp>(src_key + lo, src_perm + lo, mid - lo,
                              src_key + mid, src_perm + mid, hi - mid,
                              dst_key + lo, dst_perm + lo, comp);
      next_bounds.push_back(hi);
      ++result.stats.merges;
      result.stats.elements_moved += hi - lo;
    }
    if (run_count % 2 == 1) {
      // Odd tail carries over as a copy.
      const std::size_t lo = bounds[run_count - 1];
      const std::size_t hi = bounds[run_count];
      std::copy(src_key + lo, src_key + hi, dst_key + lo);
      std::copy(src_perm + lo, src_perm + hi, dst_perm + lo);
      next_bounds.push_back(hi);
      result.stats.elements_moved += hi - lo;
    }

    std::swap(src_key, dst_key);
    std::swap(src_perm, dst_perm);
    bounds.swap(next_bounds);
    ++result.stats.levels;
  }

  result.in_scratch = src_key != key_home;
  return result;
}

}  // namespace pgxd::sort
