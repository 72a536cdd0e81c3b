// Post-sort query API — the "high-level API exposed to the user" the paper
// advertises: binary search over the distributed sorted data, locating an
// element's previous processor/index, top-k retrieval, and per-machine key
// ranges (Table III).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/distributed_sort.hpp"
#include "sort/comparator.hpp"

namespace pgxd::core {

// Global position of an element in the distributed sorted sequence.
struct Location {
  std::size_t machine = 0;
  std::size_t index = 0;  // within that machine's partition

  friend bool operator==(const Location&, const Location&) = default;
};

// Read-only view over the sorted, distributed output of a DistributedSorter.
// Smaller keys live on smaller machine ids (the sort's postcondition), so
// global order is (machine, index) lexicographic.
template <typename Key, typename Comp = sort::Less>
class SortedSequence {
 public:
  using ItemT = Item<Key>;

  explicit SortedSequence(const std::vector<std::vector<ItemT>>& partitions,
                          Comp comp = {})
      : parts_(&partitions), comp_(comp) {
    prefix_.reserve(partitions.size() + 1);
    prefix_.push_back(0);
    for (const auto& p : partitions) prefix_.push_back(prefix_.back() + p.size());
  }

  std::uint64_t size() const { return prefix_.back(); }
  std::size_t machines() const { return parts_->size(); }

  // Element at a global rank.
  const ItemT& at(std::uint64_t global_index) const {
    PGXD_CHECK(global_index < size());
    const auto it =
        std::upper_bound(prefix_.begin(), prefix_.end(), global_index);
    const auto m = static_cast<std::size_t>(it - prefix_.begin()) - 1;
    return (*parts_)[m][global_index - prefix_[m]];
  }

  // First element with key == `key` (distributed binary search).
  std::optional<Location> find(const Key& key) const {
    const auto [loc, global] = lower_bound(key);
    if (global == size()) return std::nullopt;
    const ItemT& item = (*parts_)[loc.machine][loc.index];
    if (comp_(key, item.key)) return std::nullopt;  // key < item.key
    return loc;
  }

  // (location, global rank) of the first element >= key.
  std::pair<Location, std::uint64_t> lower_bound(const Key& key) const {
    for (std::size_t m = 0; m < parts_->size(); ++m) {
      const auto& part = (*parts_)[m];
      if (part.empty()) continue;
      if (comp_(part.back().key, key)) continue;  // whole partition < key
      const auto it = std::lower_bound(
          part.begin(), part.end(), key,
          [this](const ItemT& a, const Key& k) { return comp_(a.key, k); });
      const auto idx = static_cast<std::size_t>(it - part.begin());
      if (idx < part.size())
        return {Location{m, idx}, prefix_[m] + idx};
    }
    return {Location{parts_->size(), 0}, size()};
  }

  // Number of elements equal to key.
  std::uint64_t count(const Key& key) const {
    std::uint64_t total = 0;
    for (const auto& part : *parts_) {
      const auto lo = std::lower_bound(
          part.begin(), part.end(), key,
          [this](const ItemT& a, const Key& k) { return comp_(a.key, k); });
      const auto hi = std::upper_bound(
          part.begin(), part.end(), key,
          [this](const Key& k, const ItemT& a) { return comp_(k, a.key); });
      total += static_cast<std::uint64_t>(hi - lo);
    }
    return total;
  }

  // Largest k elements, descending — "retrieving top values from their
  // graph data". Walks partitions from the top machine down.
  std::vector<ItemT> top_k(std::size_t k) const {
    std::vector<ItemT> out;
    out.reserve(std::min<std::uint64_t>(k, size()));
    for (std::size_t m = parts_->size(); m-- > 0 && out.size() < k;) {
      const auto& part = (*parts_)[m];
      for (std::size_t i = part.size(); i-- > 0 && out.size() < k;)
        out.push_back(part[i]);
    }
    return out;
  }

  // [min, max] keys held by machine m; nullopt when the partition is empty.
  std::optional<std::pair<Key, Key>> machine_range(std::size_t m) const {
    const auto& part = (*parts_)[m];
    if (part.empty()) return std::nullopt;
    return std::make_pair(part.front().key, part.back().key);
  }

 private:
  const std::vector<std::vector<ItemT>>* parts_;
  Comp comp_;
  std::vector<std::uint64_t> prefix_;
};

}  // namespace pgxd::core
