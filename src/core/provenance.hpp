// Provenance bookkeeping: after the sort, every element knows which
// processor it came from and at which local index it lived (Sec. IV: "all
// data is merged together while keeping information regards to their
// previous processors and locations"). This is also what Fig. 11's memory
// accounting attributes the persistent overhead to.
//
// Convention: `prev_index` is the element's position in its previous
// machine's *locally sorted* sequence (the state the exchange ships).
// Receivers reconstruct it from each chunk's source rank and base offset,
// so provenance costs memory on the receiver but zero bytes on the wire.
// Exception: the two-level (AMS) scheme's group exchange, where the
// level-1 hop destroys contiguity — there each chunk carries packed
// origins explicitly, treated as audit metadata outside the modeled wire
// volume (see distributed_sort.hpp's pack_prov).
#pragma once

#include <cstdint>

namespace pgxd::core {

struct Provenance {
  std::uint32_t prev_machine = 0;
  std::uint64_t prev_index = 0;

  friend bool operator==(const Provenance&, const Provenance&) = default;
};

// Wire size of one element's provenance record (packed u32 + u64).
inline constexpr std::uint64_t kProvenanceBytes = 12;

// One sortable element: the key plus where it came from.
template <typename Key>
struct Item {
  Key key;
  Provenance prov;
};

}  // namespace pgxd::core
