// The sorter's exactly-once audit of one partition, run after the exchange
// and final merge (Step 6).
//
// Provenance makes delivery auditable: every output item names the
// (machine, index) slot it came from in that machine's locally sorted
// attempt shard. A drop, duplicate or misplacement by the exchange or the
// merge — or by the reliable-delivery layer under fault injection — shows
// up as a slot named twice, a slot outside what its source announced, or a
// short count. Pure host-side verification; costs no simulated time.
//
// Cost: one pass over the partition, plus one byte per input element in an
// AuditSlots map that every partition of a sort attempt shares. No sort and
// no per-source allocation. Cluster-wide coverage (every input slot named)
// is left to core::validate_sorted after the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "core/provenance.hpp"

namespace pgxd::core {

// One byte per element of a sort attempt's input: slot (machine, index)
// sits at base[machine] + index. Shared by every partition's audit in the
// attempt, so a slot named by two partitions is caught as well. Re-armed at
// the start of every attempt: a slot named by an aborted attempt must not
// count against its re-run.
class AuditSlots {
 public:
  // Sizes the map for shards[m].size() slots on machine m, none named.
  // Every attempt's shards pass through here, so this is also where a
  // shard too long for Provenance::prev_index is rejected, before any
  // index into it is packed.
  template <typename Shards>
  void arm(const Shards& shards) {
    base_.assign(shards.size() + 1, 0);
    for (std::size_t m = 0; m < shards.size(); ++m) {
      PGXD_CHECK_MSG(shards[m].size() < Provenance::kIndexLimit,
                     "a shard has 2^40 keys or more, past what "
                     "Provenance::prev_index holds");
      base_[m + 1] = base_[m] + shards[m].size();
    }
    named_.assign(base_.back(), 0);
  }

  // Names slot (machine, index); false if it was already named.
  bool name(std::size_t machine, std::uint64_t index) {
    PGXD_CHECK_MSG(machine + 1 < base_.size() &&
                       index < base_[machine + 1] - base_[machine],
                   "exactly-once audit: provenance names a slot outside the "
                   "attempt's input");
    std::uint8_t& slot = named_[base_[machine] + index];
    if (slot != 0) return false;
    slot = 1;
    return true;
  }

 private:
  std::vector<std::size_t> base_;
  std::vector<std::uint8_t> named_;
};

// Single-hop exchange (the flat schemes): every item came straight from a
// member of the partition scope. scope_index[machine] is that machine's
// index in the scope (the scope size for a machine outside it); source s
// announced recv_counts[s] elements, the slice of its sorted shard that
// starts at src_lo[s]. Each item's index must lie in its source's slice and
// be named once, so no source contributes more than it announced; the
// partition's size then equals the announced total only if every source
// contributed exactly its count.
template <typename Key>
void audit_single_hop_exchange(const std::vector<Item<Key>>& part,
                               const std::vector<std::size_t>& scope_index,
                               const std::vector<std::uint64_t>& src_lo,
                               const std::vector<std::uint64_t>& recv_counts,
                               AuditSlots& slots) {
  const std::size_t q = recv_counts.size();
  PGXD_CHECK(src_lo.size() == q);
  for (const Item<Key>& item : part) {
    const std::size_t machine = item.prov.prev_machine;
    PGXD_CHECK(machine < scope_index.size());
    const std::size_t s = scope_index[machine];
    PGXD_CHECK_MSG(s < q,
                   "exactly-once audit: element attributed to a rank outside "
                   "the attempt membership");
    const std::uint64_t index = item.prov.prev_index;
    PGXD_CHECK_MSG(index >= src_lo[s] && index - src_lo[s] < recv_counts[s] &&
                       slots.name(machine, index),
                   "exactly-once audit: an element was duplicated or lost in "
                   "the exchange");
  }
  std::uint64_t announced = 0;
  for (const std::uint64_t c : recv_counts) announced += c;
  PGXD_CHECK_MSG(part.size() == announced,
                 "exactly-once audit: received element count from a source "
                 "disagrees with its announced count");
}

// Two-hop exchange (two-level AMS): the level-1 hop scatters every origin
// shard over many partitions, so there are no per-source slices to check.
// Each item's origin must be named exactly once across the attempt.
template <typename Key>
void audit_two_hop_exchange(const std::vector<Item<Key>>& part,
                            AuditSlots& slots) {
  for (const Item<Key>& item : part)
    PGXD_CHECK_MSG(slots.name(item.prov.prev_machine, item.prov.prev_index),
                   "exactly-once audit: an element was duplicated in the "
                   "two-hop exchange");
}

}  // namespace pgxd::core
