// Result validation for distributed sorts — the checks the test suite
// applies, packaged for library users and the CLI driver: per-partition
// order, global cross-machine order, permutation preservation (multiset
// equality against the input), and provenance integrity, including
// cluster-wide exactly-once coverage of the input.
//
// The permutation is proven through provenance rather than by sorting both
// sides. Every output item names a (machine, index) slot in that machine's
// locally sorted shard. When the output count equals the input count, each
// named slot holds a key equivalent to the item's, and no slot is named
// twice, the item -> slot map is a bijection onto equivalent keys, so the
// output multiset equals the input multiset.
//
// Cost: one std::sort per input shard (a copy of the input, O(n) keys) and
// one pass over the output with an n-byte map of named slots. No
// whole-input or whole-output sort.
//
// Independence: the shard sorts are std::sort with the caller's comparator,
// never sort::local_sort, radix or any other kernel the sorter charges. A
// kernel bug shared by both sides would make the provenance targets agree
// with a corrupted output.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/distributed_sort.hpp"
#include "sort/comparator.hpp"

namespace pgxd::core {

struct ValidationReport {
  bool partitions_sorted = false;   // each partition internally ordered
  bool globally_ordered = false;    // machine m's max <= machine m+1's min
  bool permutation_ok = false;      // output multiset == input multiset
  bool provenance_ok = false;       // every input slot named exactly once
  std::string failure;              // first failure description, if any

  bool ok() const {
    return partitions_sorted && globally_ordered && permutation_ok &&
           provenance_ok;
  }
};

// Validates sorter output against the original input shards. A count or
// key mismatch clears permutation_ok. An out-of-range or doubly named
// (machine, index) clears provenance_ok and ends the check, so the
// permutation stays unproven too.
template <typename Key, typename Comp = sort::Less>
ValidationReport validate_sorted(
    const std::vector<std::vector<Item<Key>>>& partitions,
    const std::vector<std::vector<Key>>& input, Comp comp = {}) {
  ValidationReport report;

  // (a) per-partition order and (b) global order.
  report.partitions_sorted = true;
  report.globally_ordered = true;
  const Key* prev_max = nullptr;
  std::size_t out_count = 0;
  for (std::size_t m = 0; m < partitions.size(); ++m) {
    const auto& part = partitions[m];
    out_count += part.size();
    for (std::size_t i = 1; i < part.size(); ++i) {
      if (comp(part[i].key, part[i - 1].key)) {
        report.partitions_sorted = false;
        report.failure = "partition " + std::to_string(m) +
                         " unsorted at index " + std::to_string(i);
        return report;
      }
    }
    if (!part.empty()) {
      if (prev_max != nullptr && comp(part.front().key, *prev_max)) {
        report.globally_ordered = false;
        report.failure = "machine " + std::to_string(m) +
                         " starts below its predecessor's maximum";
        return report;
      }
      prev_max = &part.back().key;
    }
  }

  // (c) counts. Shard m's slots start at base[m] in a flat index of every
  // input slot.
  std::vector<std::size_t> base(input.size());
  std::size_t in_count = 0;
  for (std::size_t m = 0; m < input.size(); ++m) {
    base[m] = in_count;
    in_count += input[m].size();
  }
  if (in_count != out_count) {
    report.failure = "output has " + std::to_string(out_count) +
                     " elements, input had " + std::to_string(in_count);
    return report;
  }

  // (d) one pass over the output against the provenance targets (each
  // shard sorted on its own): every item names an in-range slot, no slot
  // twice, and the named key is equivalent to the item's.
  std::vector<std::vector<Key>> sorted_shards = input;
  for (auto& shard : sorted_shards)
    std::sort(shard.begin(), shard.end(), comp);
  std::vector<std::uint8_t> named(in_count, 0);
  auto provenance_failure = [&report](std::string what) {
    if (report.failure.empty()) report.failure = std::move(what);
    report.permutation_ok = false;
    return report;
  };
  report.permutation_ok = true;
  for (std::size_t m = 0; m < partitions.size(); ++m) {
    for (std::size_t i = 0; i < partitions[m].size(); ++i) {
      const Item<Key>& item = partitions[m][i];
      const std::size_t src = item.prov.prev_machine;
      const std::uint64_t idx = item.prov.prev_index;
      if (src >= sorted_shards.size())
        return provenance_failure("provenance names machine " +
                                  std::to_string(src) +
                                  " which does not exist");
      const auto& shard = sorted_shards[src];
      if (idx >= shard.size())
        return provenance_failure(
            "provenance index out of range on machine " + std::to_string(src));
      std::uint8_t& seen = named[base[src] + idx];
      if (seen != 0)
        return provenance_failure("provenance (machine " +
                                  std::to_string(src) + ", index " +
                                  std::to_string(idx) + ") named twice");
      seen = 1;
      const Key& want = shard[idx];
      if (report.permutation_ok &&
          (comp(want, item.key) || comp(item.key, want))) {
        report.permutation_ok = false;
        report.failure = "output is not a permutation of the input "
                         "(partition " + std::to_string(m) + " index " +
                         std::to_string(i) +
                         ": provenance points at a different key)";
      }
    }
  }
  report.provenance_ok = true;
  return report;
}

}  // namespace pgxd::core
