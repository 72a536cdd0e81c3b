// The sorter's exactly-once audit (core/exchange_audit.hpp) driven with
// hand-built partitions: an exact partition passes, and each defect the
// audit exists to catch aborts with its own message. Also the one-word
// Provenance record the audit reads, and the per-attempt range check that
// keeps its fields from overflowing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/exchange_audit.hpp"

namespace pgxd::core {
namespace {

using Key = std::uint64_t;
using Part = std::vector<Item<Key>>;

// Four machines with 4-element sorted shards. Machines 0-2 form the
// partition scope; machine 3 maps to the scope size, i.e. outside it.
const std::vector<std::vector<Key>> kShards(4, std::vector<Key>(4, 0));
const std::vector<std::size_t> kScopeIndex = {0, 1, 2, 3};

// One single-hop partition: source 0 sent indices [2, 4), source 1 (the
// receiver itself) [0, 2) and source 2 [1, 3).
const std::vector<std::uint64_t> kSrcLo = {2, 0, 1};
const std::vector<std::uint64_t> kRecvCounts = {2, 2, 2};

Item<Key> item(Key key, std::uint32_t machine, std::uint64_t index) {
  Item<Key> it;
  it.key = key;
  it.prov = Provenance{machine, index};
  return it;
}

Part exact_partition() {
  return {item(10, 0, 2), item(11, 1, 0), item(12, 2, 1),
          item(13, 0, 3), item(14, 1, 1), item(15, 2, 2)};
}

void audit_single(const Part& part) {
  AuditSlots slots;
  slots.arm(kShards);
  audit_single_hop_exchange(part, kScopeIndex, kSrcLo, kRecvCounts, slots);
}

void audit_two_hop(const Part& part) {
  AuditSlots slots;
  slots.arm(kShards);
  audit_two_hop_exchange(part, slots);
}

// The constructor packs machine above index into one word, and the
// bit-fields read both back, at both ends of their ranges. A bit-field
// layout that differed from the packing would fail here.
TEST(ProvenanceWord, RoundTripsThroughTheConstructorAndBothFields) {
  struct Case {
    std::uint64_t machine;
    std::uint64_t index;
  };
  const Case cases[] = {
      {0, 0},
      {Provenance::kMachineLimit - 1, Provenance::kIndexLimit - 1},
      {0xa55a01, 0xf00f0ff00f},
  };
  for (const Case& c : cases) {
    const Provenance prov(c.machine, c.index);
    EXPECT_EQ(prov.prev_machine, c.machine);
    EXPECT_EQ(prov.prev_index, c.index);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(prov), c.machine << 40 | c.index);
    EXPECT_TRUE(prov == Provenance(c.machine, c.index));
    EXPECT_FALSE(prov != Provenance(c.machine, c.index));
  }
  // Either field alone tells two records apart, down to the bits that meet
  // in the middle of the word.
  const Provenance mixed(0xa55a01, 0xf00f0ff00f);
  EXPECT_NE(mixed, Provenance(0xa55a00, 0xf00f0ff00f));
  EXPECT_NE(mixed, Provenance(0xa55a01, 0x700f0ff00f));
  EXPECT_NE(Provenance(1, 0), Provenance(0, Provenance::kIndexLimit - 1));
}

TEST(ExchangeAudit, AcceptsAnExactSingleHopPartition) {
  audit_single(exact_partition());
}

TEST(ExchangeAudit, AcceptsDistinctTwoHopOrigins) {
  // Origins anywhere in the attempt, machine 3 included, in any order.
  audit_two_hop({item(1, 3, 0), item(2, 0, 3), item(3, 2, 1), item(4, 3, 2)});
}

TEST(ExchangeAuditDeath, DuplicatedItemAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Part part = exact_partition();
  part[5] = part[3];  // (0, 3) twice; (2, 2) never arrives
  EXPECT_DEATH(audit_single(part),
               "exactly-once audit: an element was duplicated or lost in "
               "the exchange");
}

TEST(ExchangeAuditDeath, LostItemAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Part part = exact_partition();
  part.pop_back();
  EXPECT_DEATH(audit_single(part),
               "exactly-once audit: received element count from a source "
               "disagrees with its announced count");
}

TEST(ExchangeAuditDeath, IndexOutsideTheAnnouncedSliceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Part part = exact_partition();
  part[0] = item(10, 0, 1);  // source 0 announced [2, 4)
  EXPECT_DEATH(audit_single(part),
               "exactly-once audit: an element was duplicated or lost in "
               "the exchange");
}

TEST(ExchangeAuditDeath, ItemFromOutsideTheMembershipAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Part part = exact_partition();
  part[2] = item(12, 3, 1);  // machine 3 is not in the scope
  EXPECT_DEATH(audit_single(part),
               "exactly-once audit: element attributed to a rank outside "
               "the attempt membership");
}

TEST(ExchangeAuditDeath, RepeatedTwoHopOriginAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(audit_two_hop({item(1, 0, 1), item(2, 2, 0), item(3, 0, 1)}),
               "exactly-once audit: an element was duplicated in the two-hop "
               "exchange");
}

TEST(ExchangeAuditDeath, OriginOutsideTheAttemptInputAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(audit_two_hop({item(1, 0, 4)}),
               "exactly-once audit: provenance names a slot outside the "
               "attempt's input");
}

// The slot map is shared by every partition of an attempt: an origin named
// by two partitions is a duplicate too. Re-arming for the next attempt
// forgets what an aborted attempt named.
TEST(ExchangeAuditDeath, SlotsSpanTheAttemptAndResetOnRearm) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  AuditSlots slots;
  slots.arm(kShards);
  audit_two_hop_exchange(Part{item(1, 0, 1), item(2, 1, 1)}, slots);
  EXPECT_DEATH(audit_two_hop_exchange(Part{item(3, 1, 1)}, slots),
               "duplicated in the two-hop exchange");
  slots.arm(kShards);
  audit_two_hop_exchange(Part{item(3, 1, 1)}, slots);
}

// Every attempt's shards are armed before any index into them is packed,
// so a shard of 2^40 keys, which prev_index cannot address, aborts there.
// The shards are stand-ins whose size() reports 2^40: nothing is allocated.
TEST(ExchangeAuditDeath, ShardPastTheIndexFieldAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  struct HugeShard {
    std::uint64_t size() const { return Provenance::kIndexLimit; }
  };
  const std::vector<HugeShard> shards(2);
  AuditSlots slots;
  EXPECT_DEATH(slots.arm(shards), "past what Provenance::prev_index holds");
}

}  // namespace
}  // namespace pgxd::core
