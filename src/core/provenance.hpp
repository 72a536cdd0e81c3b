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
// level-1 hop destroys contiguity — there each element's Provenance rides
// the sender's run as an origin plane (core::SortedRun::origins), treated
// as audit metadata outside the modeled wire volume.
//
// Host record vs. model: on the host a Provenance is one 64-bit word, the
// machine in the top 24 bits and the index in the low 40, so an
// Item<std::uint64_t> is 16 bytes. The cost model charges PGX.D's record
// instead: kProvenanceBytes (a u32 machine and a u64 index, 12 bytes) on
// top of the key, 20 stored bytes per u64 item (the sorter's
// kStoredBytesPerItem). The sorter keeps every value in range with one
// check per run, not one per element: the cluster has at most
// kMachineLimit machines and every attempt shard fewer than kIndexLimit
// keys (AuditSlots::arm).
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

namespace pgxd::core {

struct Provenance {
  std::uint64_t prev_index : 40 = 0;
  std::uint32_t prev_machine : 24 = 0;

  // Exclusive bounds of the two fields.
  static constexpr std::uint64_t kMachineLimit = std::uint64_t{1} << 24;
  static constexpr std::uint64_t kIndexLimit = std::uint64_t{1} << 40;

  Provenance() = default;
  // Requires machine < kMachineLimit and index < kIndexLimit. Built as one
  // 64-bit store: GCC 12 compiles brace-initialisation of the two
  // bit-fields into read-modify-write sequences.
  Provenance(std::uint64_t machine, std::uint64_t index)
      : Provenance(std::bit_cast<Provenance>(machine << 40 | index)) {}

  friend bool operator==(const Provenance&, const Provenance&) = default;
};

static_assert(sizeof(Provenance) == 8 &&
                  std::is_trivially_copyable_v<Provenance>,
              "a Provenance is one 64-bit word");

// Wire size of one element's provenance record in the model (packed u32 +
// u64); the host record is sizeof(Provenance).
inline constexpr std::uint64_t kProvenanceBytes = 12;

// One sortable element: the key plus where it came from.
template <typename Key>
struct Item {
  Key key;
  Provenance prov;
};

static_assert(sizeof(Item<std::uint64_t>) == 16,
              "a u64 output item carries no padding");

}  // namespace pgxd::core
