// Regular sampling and splitter selection — steps (2) and (3) of the
// paper's pipeline.
//
// Each processor draws `count` regular samples from its locally sorted
// data, offset by its own phase within the sample stride; the master
// merges all received samples and selects p-1 final splitters at regular
// positions.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "sort/comparator.hpp"

namespace pgxd::sort {

// Position of pick i of `count` evenly spaced picks from `n` sorted slots
// for member `idx` of a `q`-member scope: (i + phi) * n / count, where the
// member's phase phi = (idx + 1/2) / q of one stride. Aligned picks would
// land every member's i-th pick near the same global quantile of iid
// shards, so the union of q members' picks would be `count` tight clusters;
// the phases interleave them into q * count spread quantiles. Exact integer
// arithmetic: floor((2q*i + 2*idx + 1) * n / (2q * count)).
inline std::size_t phased_position(std::size_t i, std::size_t count,
                                   std::size_t n, std::size_t idx,
                                   std::size_t q) {
  const std::uint64_t q2 = 2 * std::uint64_t{q};
  PGXD_DCHECK(i < count && idx < q);
  PGXD_DCHECK(n <= std::numeric_limits<std::uint64_t>::max() / (q2 * count));
  return static_cast<std::size_t>((q2 * i + 2 * idx + 1) * n / (q2 * count));
}

// Picks `count` regular samples from sorted `data` for member `idx` of a
// `q`-member scope: sample i sits at phased_position(i, count, n, idx, q).
// If count >= n, returns a copy of the data (every element is a sample).
template <typename T>
std::vector<T> regular_samples(std::span<const T> data, std::size_t count,
                               std::size_t idx, std::size_t q) {
  const std::size_t n = data.size();
  if (count >= n) return std::vector<T>(data.begin(), data.end());
  std::vector<T> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    samples.push_back(data[phased_position(i, count, n, idx, q)]);
  return samples;
}

// Selects `parts - 1` splitters at regular positions from the *sorted*
// pool of gathered samples. The splitter for boundary j sits at the
// j/parts quantile of the sample pool. A pool smaller than parts-1 yields
// duplicated splitters (handled downstream by the investigator); an empty
// pool yields default-constructed splitters, which only happens when the
// whole dataset is (close to) empty.
template <typename T, typename Comp = Less>
std::vector<T> select_splitters(std::span<const T> sorted_samples,
                                std::size_t parts,
                                [[maybe_unused]] Comp comp = {}) {
  PGXD_CHECK(parts >= 1);
  PGXD_DCHECK(std::is_sorted(sorted_samples.begin(), sorted_samples.end(), comp));
  std::vector<T> splitters;
  if (parts == 1) return splitters;
  const std::size_t m = sorted_samples.size();
  if (m == 0) return std::vector<T>(parts - 1, T{});
  splitters.reserve(parts - 1);
  for (std::size_t j = 1; j < parts; ++j)
    splitters.push_back(sorted_samples[j * m / parts]);
  return splitters;
}

// Weighted splitter selection for *unequal* shard sizes: sample j from a
// shard of n_i elements drawn as s_i regular samples represents n_i / s_i
// elements. Splitters sit at equal cumulative-weight positions, so shards
// of different sizes (e.g. graph partitions balanced by edges, not
// vertices) still yield balanced destinations.
//
// `shares`, when given, is a parts+1 prefix of the parts' relative sizes
// (e.g. AMS group member counts): splitter j then sits at
// shares[j] / shares[parts] of the weight instead of j / parts.
template <typename T>
struct WeightedSample {
  T key;
  double weight;
};

template <typename T, typename Comp = Less>
std::vector<T> select_splitters_weighted(
    std::span<const WeightedSample<T>> sorted_samples, std::size_t parts,
    [[maybe_unused]] Comp comp = {},
    std::span<const std::size_t> shares = {}) {
  PGXD_CHECK(parts >= 1);
  PGXD_CHECK(shares.empty() || shares.size() == parts + 1);
  std::vector<T> splitters;
  if (parts == 1) return splitters;
  if (sorted_samples.empty()) return std::vector<T>(parts - 1, T{});
  PGXD_DCHECK(std::is_sorted(
      sorted_samples.begin(), sorted_samples.end(),
      [&](const WeightedSample<T>& a, const WeightedSample<T>& b) {
        return comp(a.key, b.key);
      }));
  double total = 0;
  for (const auto& s : sorted_samples) total += s.weight;
  splitters.reserve(parts - 1);
  double cum = 0;
  std::size_t i = 0;
  for (std::size_t j = 1; j < parts; ++j) {
    const double target =
        total * static_cast<double>(shares.empty() ? j : shares[j]) /
        static_cast<double>(shares.empty() ? parts : shares[parts]);
    while (i + 1 < sorted_samples.size() &&
           cum + sorted_samples[i].weight < target) {
      cum += sorted_samples[i].weight;
      ++i;
    }
    splitters.push_back(sorted_samples[i].key);
  }
  return splitters;
}

}  // namespace pgxd::sort
