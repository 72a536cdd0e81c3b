// Structure-of-arrays variant of the Fig. 2 balanced merge for the
// distributed final merge (paper step 6).
//
// Merging full Item{key, provenance} records through every tree level would
// move sizeof(Item) bytes per element per level. Here the runs are
// split into a Key array and a compact u32 permutation: the Merge-Path
// kernel merges the keys and carries the permutation alongside, so each
// level moves only sizeof(Key) + 4 bytes per element, and provenance is
// reconstructed once at the end from the permutation (see the caller in
// src/core/distributed_sort.hpp). The result is reported in place — a
// `in_scratch` flag says which buffer holds it — so the last level never
// pays a staging copy-back; the reconstruction pass reads from wherever the
// data landed and writes directly into the output partition.
//
// Stability: ties resolve toward the run with the lower index (same
// convention as merge_into), so with an identity-initialized permutation,
// equal keys keep ascending permutation values throughout.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/comparator.hpp"
#include "sort/merge.hpp"

namespace pgxd::sort {

// One independent piece of a key+permutation merge. Like MergeSegment, a POD
// descriptor stored in a reusable per-level vector.
template <typename K>
struct SoaMergeSegment {
  const K* a_key = nullptr;
  const K* b_key = nullptr;
  const std::uint32_t* a_perm = nullptr;
  const std::uint32_t* b_perm = nullptr;
  K* out_key = nullptr;
  std::uint32_t* out_perm = nullptr;
  std::size_t a_n = 0;
  std::size_t b_n = 0;
};

// Stable sequential merge of the segment's two key runs, moving the
// permutation in lockstep.
template <typename K, typename Comp = Less>
void run_soa_merge_segment(const SoaMergeSegment<K>& seg, Comp comp = {}) {
  std::size_t i = 0, j = 0, k = 0;
  while (i < seg.a_n && j < seg.b_n) {
    if (comp(seg.b_key[j], seg.a_key[i])) {
      seg.out_key[k] = seg.b_key[j];
      seg.out_perm[k++] = seg.b_perm[j++];
    } else {
      seg.out_key[k] = seg.a_key[i];
      seg.out_perm[k++] = seg.a_perm[i++];
    }
  }
  for (; i < seg.a_n; ++i, ++k) {
    seg.out_key[k] = seg.a_key[i];
    seg.out_perm[k] = seg.a_perm[i];
  }
  for (; j < seg.b_n; ++j, ++k) {
    seg.out_key[k] = seg.b_key[j];
    seg.out_perm[k] = seg.b_perm[j];
  }
}

// Cuts one key+permutation merge into `pieces` independent segments via
// co_rank on the keys and appends them to `segs`.
template <typename K, typename Comp = Less>
void append_soa_merge_segments(const K* a_key, const std::uint32_t* a_perm,
                               std::size_t a_n, const K* b_key,
                               const std::uint32_t* b_perm, std::size_t b_n,
                               K* out_key, std::uint32_t* out_perm, Comp comp,
                               std::size_t pieces,
                               std::vector<SoaMergeSegment<K>>& segs) {
  const std::size_t n = a_n + b_n;
  if (n == 0) return;
  pieces = std::max<std::size_t>(1, pieces);
  if (n / pieces < kMinMergePiece)
    pieces = std::max<std::size_t>(1, n / kMinMergePiece);
  const std::span<const K> a(a_key, a_n);
  const std::span<const K> b(b_key, b_n);
  std::size_t prev_k = 0;
  std::size_t prev_i = 0;
  for (std::size_t p = 1; p <= pieces; ++p) {
    const std::size_t k = n * p / pieces;
    const std::size_t i = (p == pieces) ? a_n : co_rank(k, a, b, comp);
    const std::size_t j0 = prev_k - prev_i;
    const std::size_t j1 = k - i;
    segs.push_back(SoaMergeSegment<K>{a_key + prev_i, b_key + j0,
                                      a_perm + prev_i, b_perm + j0,
                                      out_key + prev_k, out_perm + prev_k,
                                      i - prev_i, j1 - j0});
    prev_k = k;
    prev_i = i;
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
                                  Comp comp = {}, ThreadPool* pool = nullptr) {
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
  const std::size_t total_workers = pool ? pool->workers() + 1 : 1;

  std::vector<SoaMergeSegment<K>> segs;  // reused across levels
  std::vector<std::size_t> next_bounds;
  while (bounds.size() > 2) {
    const std::size_t run_count = bounds.size() - 1;
    next_bounds.clear();
    next_bounds.reserve(run_count / 2 + 2);
    next_bounds.push_back(0);

    segs.clear();
    const std::size_t merges = run_count / 2;
    const std::size_t pieces_per_merge =
        merges > 0 ? std::max<std::size_t>(1, total_workers / merges) : 1;

    for (std::size_t r = 0; r + 1 < run_count; r += 2) {
      const std::size_t lo = bounds[r];
      const std::size_t mid = bounds[r + 1];
      const std::size_t hi = bounds[r + 2];
      append_soa_merge_segments<K, Comp>(
          src_key + lo, src_perm + lo, mid - lo, src_key + mid, src_perm + mid,
          hi - mid, dst_key + lo, dst_perm + lo, comp, pieces_per_merge, segs);
      next_bounds.push_back(hi);
      ++result.stats.merges;
      result.stats.elements_moved += hi - lo;
    }
    if (run_count % 2 == 1) {
      // Odd tail carries over as a copy (empty b side).
      const std::size_t lo = bounds[run_count - 1];
      const std::size_t hi = bounds[run_count];
      segs.push_back(SoaMergeSegment<K>{src_key + lo, src_key + hi,
                                        src_perm + lo, src_perm + hi,
                                        dst_key + lo, dst_perm + lo, hi - lo,
                                        0});
      next_bounds.push_back(hi);
      result.stats.elements_moved += hi - lo;
    }

    if (pool)
      pool->run_all(segs.size(), [&](std::size_t i) {
        run_soa_merge_segment(segs[i], comp);
      });
    else
      for (const auto& seg : segs) run_soa_merge_segment(seg, comp);

    std::swap(src_key, dst_key);
    std::swap(src_perm, dst_perm);
    bounds.swap(next_bounds);
    ++result.stats.levels;
  }

  result.in_scratch = src_key != key_home;
  return result;
}

}  // namespace pgxd::sort
