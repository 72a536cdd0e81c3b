// Loser-tree k-way merge — the classical alternative to the paper's Fig. 2
// balanced merge tree. One comparison per element per tree level (log2 k),
// and every element is moved exactly once.
//
// The tournament engine is exposed as a *range* primitive
// (`kway_merge_range`) over runs given as spans: it starts from arbitrary
// per-run cursors and emits the (run, index) of exactly `count` elements in
// merged order, so the caller decides where each element goes. `kway_merge`
// runs one engine over a whole buffer; sort/parallel_kway_merge.hpp cuts the
// output into ranges via multisequence selection and runs one engine per
// range — the merge the distributed sorter runs in step 6, one range or
// several. The runs need not be contiguous: the sorter merges straight from
// its exchange views.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
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

// Tournament engine: merges the next `count` elements of the k-way merge of
// the sorted `runs`, starting from `cursor` (size R, cursor[r] <=
// runs[r].size(); advanced in place). Emits emit(r, i) for each element in
// ascending merged order, with runs[r][i] the next element. Returns the
// comparison count.
//
// Each contestant's head key is cached in its tree node, so replaying a
// path compares keys the nodes already hold; only the winner's run is read,
// once per emitted element.
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
  PGXD_CHECK(nruns <= std::numeric_limits<std::uint32_t>::max());

  // A contestant: its run, and that run's head key unless the run is
  // exhausted (or a padding leaf), in which case it loses to every other.
  struct Node {
    K key{};
    std::uint32_t run = 0;
    bool done = true;
  };
  const auto head = [&](std::size_t r) {
    Node h;
    h.run = static_cast<std::uint32_t>(r);
    if (r < nruns && cursor[r] < runs[r].size()) {
      h.key = runs[r][cursor[r]];
      h.done = false;
    }
    return h;
  };
  // a beats b if a's head < b's head, or equal heads with a < b. An
  // exhausted contestant always loses.
  const auto beats = [&](const Node& a, const Node& b) {
    if (b.done) return true;
    if (a.done) return false;
    ++comparisons;
    if (comp(a.key, b.key)) return true;
    if (comp(b.key, a.key)) return false;
    return a.run < b.run;
  };

  // Tournament tree over k leaves (padded to a power of two with exhausted
  // leaves). losers[i] holds the losing contestant at internal node i; the
  // overall winner is held separately. Build: play the tournament
  // bottom-up.
  const std::size_t k = std::bit_ceil(nruns);
  std::vector<Node> losers(k);  // internal nodes, index 1..k-1 used
  Node winner;
  {
    std::vector<Node> level(k);
    for (std::size_t i = 0; i < k; ++i) level[i] = head(i);
    std::size_t width = k;
    std::size_t node_base = k;
    while (width > 1) {
      width /= 2;
      node_base /= 2;
      for (std::size_t i = 0; i < width; ++i) {
        const Node a = level[2 * i], b = level[2 * i + 1];
        const bool a_wins = beats(a, b);
        losers[node_base + i] = a_wins ? b : a;
        level[i] = a_wins ? a : b;
      }
    }
    winner = level[0];
  }

  for (std::size_t out = 0; out < count; ++out) {
    PGXD_DCHECK(!winner.done);
    const std::size_t r = winner.run;
    std::size_t& at = cursor[r];
    emit(r, at);
    if (++at < runs[r].size())
      winner.key = runs[r][at];
    else
      winner.done = true;
    // Replay the winner's path to the root.
    for (std::size_t node = (k + r) / 2; node >= 1; node /= 2)
      if (beats(losers[node], winner)) std::swap(losers[node], winner);
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
