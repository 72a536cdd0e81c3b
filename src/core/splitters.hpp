// Partition planning — step (4) of the pipeline: binary search of the
// received splitters on locally sorted data, with the paper's
// *investigator* for duplicated splitters (Fig. 3).
//
// Plain plan (Fig. 3a/3b): bound[j] = lower_bound(splitter[j]); every
// element in [bound[j], bound[j+1]) is sent to processor j. When many
// splitters are equal (duplicate-heavy data), all their bounds coincide:
// the processors between duplicates receive nothing and one processor
// receives the whole duplicate run (Fig. 3b).
//
// Investigator plan (Fig. 3c): binary search executes once per *distinct*
// splitter; for a group of d equal splitters the duplicate run
// [lower_bound(v), upper_bound(v)) is divided into d equal slices, one per
// duplicated splitter, restoring balance.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "sort/comparator.hpp"

namespace pgxd::core {

struct PartitionPlan {
  // bounds.size() == parts + 1; destination j receives local elements
  // [bounds[j], bounds[j+1]).
  std::vector<std::size_t> bounds;
  // Number of binary searches executed (distinct splitters when the
  // investigator is on; all splitters otherwise). Feeds the cost model.
  std::size_t searches = 0;
  // Number of splitter groups the investigator subdivided.
  std::size_t duplicate_groups = 0;
};

// Computes the send ranges for `parts` destinations over locally sorted
// `keys` given `parts - 1` sorted splitters. `shares`, when given, is a
// parts+1 prefix of the destinations' relative sizes (e.g. AMS group
// member counts); the investigator then aims boundary j at shares[j] /
// shares[parts] of the local keys instead of j / parts.
template <typename Key, typename Comp = sort::Less>
PartitionPlan plan_partition(std::span<const Key> keys,
                             std::span<const Key> splitters,
                             bool use_investigator, Comp comp = {},
                             std::span<const std::size_t> shares = {}) {
  PGXD_DCHECK(std::is_sorted(keys.begin(), keys.end(), comp));
  PGXD_DCHECK(std::is_sorted(splitters.begin(), splitters.end(), comp));
  const std::size_t parts = splitters.size() + 1;
  PGXD_CHECK(shares.empty() || shares.size() == parts + 1);
  PartitionPlan plan;
  plan.bounds.assign(parts + 1, 0);
  plan.bounds[parts] = keys.size();

  if (!use_investigator) {
    for (std::size_t j = 0; j < splitters.size(); ++j) {
      plan.bounds[j + 1] = static_cast<std::size_t>(
          std::lower_bound(keys.begin(), keys.end(), splitters[j], comp) -
          keys.begin());
      ++plan.searches;
    }
    return plan;
  }

  // Investigator: binary search runs once per *distinct* splitter value,
  // producing the feasible interval [lo, hi) of keys equal to it. Every
  // boundary whose splitter falls in that group is then placed at its
  // balanced target position — boundary j wants j/parts of the local data
  // (or its share) below it — clamped into the feasible interval. Keys
  // strictly below or above the splitter value cannot move, but keys
  // *equal* to it may land on either side, which is exactly the freedom
  // duplicated splitters expose; the clamp divides a dominant duplicate
  // run so that every destination's total load (not just its slice of the
  // run) is equal.
  // This reproduces Table II's near-exact 9.998% shares.
  const std::size_t n = keys.size();
  std::size_t j = 0;
  while (j < splitters.size()) {
    // Group [j, g) of splitters equal to splitters[j].
    std::size_t g = j + 1;
    while (g < splitters.size() && !comp(splitters[j], splitters[g])) ++g;
    const std::size_t d = g - j;

    const auto lo_it =
        std::lower_bound(keys.begin(), keys.end(), splitters[j], comp);
    const auto lo = static_cast<std::size_t>(lo_it - keys.begin());
    const auto hi = static_cast<std::size_t>(
        std::upper_bound(lo_it, keys.end(), splitters[j], comp) -
        keys.begin());
    plan.searches += 2;
    if (d > 1) ++plan.duplicate_groups;

    for (std::size_t i = 0; i < d; ++i) {
      const std::size_t b = j + 1 + i;
      const std::size_t target =
          shares.empty() ? b * n / parts : shares[b] * n / shares[parts];
      plan.bounds[b] = std::clamp(target, lo, hi);
    }
    j = g;
  }

  // Monotonicity can be violated only by a buggy comparator; check always.
  for (std::size_t b = 0; b < parts; ++b)
    PGXD_CHECK_MSG(plan.bounds[b] <= plan.bounds[b + 1],
                   "partition bounds must be non-decreasing");
  return plan;
}

// Sizes each destination receives under `plan`.
inline std::vector<std::uint64_t> plan_sizes(const PartitionPlan& plan) {
  std::vector<std::uint64_t> sizes(plan.bounds.size() - 1);
  for (std::size_t j = 0; j + 1 < plan.bounds.size(); ++j)
    sizes[j] = plan.bounds[j + 1] - plan.bounds[j];
  return sizes;
}

}  // namespace pgxd::core
