// Loser-tree k-way merge — the classical alternative to the paper's Fig. 2
// balanced merge tree. One key comparison per tree level (log2 k) for each
// element whose replay runs, and every element is moved exactly once.
//
// The tournament engine is exposed as a *range* primitive
// (`kway_merge_range`) over runs given as spans: it starts from arbitrary
// per-run cursors and emits the (run, index) of exactly `count` elements in
// merged order, so the caller decides where each element goes. `kway_merge`
// runs one engine over a whole buffer; sort/parallel_kway_merge.hpp cuts the
// output into ranges via multisequence selection and runs one engine per
// range; the distributed sorter's step 6 runs it in one range. The runs
// need not be contiguous: the sorter merges straight from its exchange
// views.
//
// Three things keep the replay cheap:
//   - *One comparison per level.* Leaf r sits at node k + r, so every run in
//     a node's left subtree is lower than every run in its right subtree,
//     and the loser stored at a node came from the child the climber did
//     not come from. The side that wins a tie is therefore known from the
//     path, and one key comparison decides each match.
//   - *No branch on keys.* Each level selects winner and loser with word
//     masks (`swap_if`). A jump on a key comparison mispredicts about half
//     the time on merged keys, and GCC compiles `?:` on loaded values back
//     into such jumps, so the selects do not use it.
//   - *No replay for an equal successor.* When the winner's next key is not
//     greater than the key just emitted, every other contestant holds a
//     greater key or an equal key from a higher run, so the winner and every
//     stored loser stay as they are and the key is emitted without a replay.
//     Duplicate-heavy inputs (the twitter degrees) take this path for most
//     keys.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "sort/comparator.hpp"

namespace pgxd::sort {

struct KwayMergeStats {
  std::size_t runs = 0;
  std::uint64_t comparisons = 0;
};

// The sorted runs of `base` described by `bounds` (size R+1; run r is
// [bounds[r], bounds[r+1])), as spans.
template <typename K>
std::vector<std::span<const K>> runs_of(const K* base,
                                        std::span<const std::size_t> bounds) {
  std::vector<std::span<const K>> runs;
  runs.reserve(bounds.size() - 1);
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r)
    runs.emplace_back(base + bounds[r], bounds[r + 1] - bounds[r]);
  return runs;
}

namespace detail {

// Swaps a and b iff `cond`, without a branch: both values pass through u64
// words and trade the bits an all-ones or all-zeros mask selects.
template <typename T>
inline void swap_if(bool cond, T& a, T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr std::size_t kWords = (sizeof(T) + 7) / 8;
  std::uint64_t wa[kWords] = {};
  std::uint64_t wb[kWords] = {};
  std::memcpy(wa, &a, sizeof(T));
  std::memcpy(wb, &b, sizeof(T));
  const std::uint64_t mask = std::uint64_t{0} - static_cast<std::uint64_t>(cond);
  for (std::size_t i = 0; i < kWords; ++i) {
    const std::uint64_t diff = (wa[i] ^ wb[i]) & mask;
    wa[i] ^= diff;
    wb[i] ^= diff;
  }
  std::memcpy(&a, wa, sizeof(T));
  std::memcpy(&b, wb, sizeof(T));
}

}  // namespace detail

// Tournament engine: merges the next `count` elements of the k-way merge of
// the sorted `runs`, starting from `cursor` (size R, cursor[r] <=
// runs[r].size(); advanced in place). Emits emit(r, i) for each element in
// ascending merged order, with runs[r][i] the next element. Returns the
// comparison count: one per match between two live contestants (the build
// and every replay level) plus one per successor check, made after each
// emitted element whose run has a next element.
//
// The losers live in two planes: lkey[node] holds the stored loser's head
// key and lrun[node] its run, with kDone set once the run is exhausted (or
// for a padding leaf); an exhausted contestant loses to every live one.
// Only the winner's run is read, once per emitted element.
//
// Stability: ties resolve to the lower run index — the same convention as
// merge_into / the Fig. 2 tree, and the one kway_select's boundary cursors
// assume, so disjoint ranges of one merge concatenate into exactly the
// stable merge of the whole input.
template <typename K, typename Comp, typename Emit>
std::uint64_t kway_merge_range(std::span<const std::span<const K>> runs,
                               std::span<std::size_t> cursor,
                               std::size_t count, Comp comp, Emit&& emit) {
  const std::size_t nruns = runs.size();
  PGXD_DCHECK(cursor.size() == nruns);
  std::uint64_t comparisons = 0;
  if (count == 0) return comparisons;
  if (nruns == 1) {
    for (std::size_t i = 0; i < count; ++i) emit(std::size_t{0}, cursor[0]++);
    PGXD_DCHECK(cursor[0] <= runs[0].size());
    return comparisons;
  }
  constexpr unsigned kDoneBit = 31;
  constexpr std::uint32_t kDone = std::uint32_t{1} << kDoneBit;
  PGXD_CHECK(nruns < kDone);

  // Build: play the tournament bottom-up over k leaves (padded to a power
  // of two with exhausted leaves). At each match the left contestant (the
  // lower runs) wins iff !comp(right, left); the loser stays in the node.
  const std::size_t k = std::bit_ceil(nruns);
  std::vector<K> lkey(k);             // internal nodes, index 1..k-1 used
  std::vector<std::uint32_t> lrun(k);
  K wkey{};
  std::uint32_t wrun = 0;
  {
    std::vector<K> key(k);
    std::vector<std::uint32_t> run(k);
    for (std::size_t r = 0; r < k; ++r) {
      run[r] = static_cast<std::uint32_t>(r);
      if (r < nruns && cursor[r] < runs[r].size())
        key[r] = runs[r][cursor[r]];
      else
        run[r] |= kDone;
    }
    for (std::size_t width = k / 2; width >= 1; width /= 2) {
      for (std::size_t i = 0; i < width; ++i) {
        K left = key[2 * i], right = key[2 * i + 1];
        std::uint32_t lr = run[2 * i], rr = run[2 * i + 1];
        const std::uint32_t ldone = lr >> kDoneBit, rdone = rr >> kDoneBit;
        const bool right_wins =
            ((rdone ^ 1u) & (ldone | std::uint32_t{comp(right, left)})) != 0;
        comparisons += (ldone | rdone) ^ 1u;
        detail::swap_if(right_wins, left, right);
        detail::swap_if(right_wins, lr, rr);
        lkey[width + i] = right;
        lrun[width + i] = rr;
        key[i] = left;
        run[i] = lr;
      }
    }
    wkey = key[0];
    wrun = run[0];
  }

  for (std::size_t out = 0; out < count; ++out) {
    PGXD_DCHECK((wrun & kDone) == 0);
    const std::size_t r = wrun;
    std::size_t& at = cursor[r];
    emit(r, at);
    if (++at < runs[r].size()) {
      const K next = runs[r][at];
      ++comparisons;
      const bool equal = !comp(wkey, next);
      wkey = next;
      if (equal) continue;
    } else {
      wrun |= kDone;
    }
    // Replay the winner's path to the root. The stored loser wins iff
    // comp(loser, climber) when the climber came from the left child, and
    // iff !comp(climber, loser) when it came from the right (odd) child.
    for (std::size_t child = k + r; child > 1; child /= 2) {
      const std::size_t node = child / 2;
      const auto from_right = static_cast<std::uint32_t>(child & 1);
      K a = lkey[node], b = wkey;
      detail::swap_if(from_right != 0, a, b);
      const std::uint32_t ldone = lrun[node] >> kDoneBit;
      const std::uint32_t wdone = wrun >> kDoneBit;
      const std::uint32_t by_key = std::uint32_t{comp(a, b)} ^ from_right;
      const bool loser_wins = ((ldone ^ 1u) & (wdone | by_key)) != 0;
      comparisons += (ldone | wdone) ^ 1u;
      detail::swap_if(loser_wins, lkey[node], wkey);
      detail::swap_if(loser_wins, lrun[node], wrun);
    }
  }
  return comparisons;
}

// Merges the sorted runs described by `bounds` (size R+1, bounds[0] == 0,
// bounds[R] == data.size()) into sorted order in `data`, via one pass
// through a loser tree. Stable across runs (ties resolve to the lower run
// index).
template <typename T, typename Comp = Less>
KwayMergeStats kway_merge(std::vector<T>& data,
                          const std::vector<std::size_t>& bounds,
                          std::vector<T>& scratch, Comp comp = {}) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.front() == 0);
  PGXD_CHECK(bounds.back() == data.size());
  KwayMergeStats stats;
  const std::size_t nruns = bounds.size() - 1;
  stats.runs = nruns;
  if (nruns <= 1) return stats;

  scratch.resize(data.size());
  const auto runs = runs_of<T>(data.data(), bounds);
  std::vector<std::size_t> cursor(nruns, 0);
  T* out = scratch.data();
  stats.comparisons = kway_merge_range<T>(
      runs, cursor, data.size(), comp,
      [&](std::size_t r, std::size_t i) { *out++ = runs[r][i]; });
  data.swap(scratch);
  return stats;
}

}  // namespace pgxd::sort
