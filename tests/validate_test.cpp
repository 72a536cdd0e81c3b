// Tests for the result validator: it must accept correct output and
// pinpoint each class of corruption.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/validate.hpp"
#include "datagen/distributions.hpp"

namespace pgxd::core {
namespace {

using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;
using ItemT = Item<Key>;
using Shards = std::vector<std::vector<Key>>;
using Parts = std::vector<std::vector<ItemT>>;

// 2,000 keys per machine, drawn from `domain` distinct values.
Shards make_input(std::size_t machines,
                  std::uint64_t domain = gen::DataGenConfig{}.domain) {
  gen::DataGenConfig dcfg;
  dcfg.seed = 3;
  dcfg.domain = domain;
  Shards input;
  for (std::size_t r = 0; r < machines; ++r)
    input.push_back(gen::generate_shard(dcfg, 2000 * machines, machines, r));
  return input;
}

Parts sort_input(const Shards& input, const SortConfig& cfg = {}) {
  rt::ClusterConfig ccfg;
  ccfg.machines = input.size();
  ccfg.threads_per_machine = 4;
  rt::Cluster<Sorter::Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(input);
  return sorter.partitions();
}

class ValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = make_input(4);
    parts_ = sort_input(input_);
  }

  Shards input_;
  Parts parts_;
};

TEST_F(ValidateTest, AcceptsCorrectOutput) {
  const auto report = validate_sorted(parts_, input_);
  EXPECT_TRUE(report.ok()) << report.failure;
  EXPECT_TRUE(report.partitions_sorted);
  EXPECT_TRUE(report.globally_ordered);
  EXPECT_TRUE(report.permutation_ok);
  EXPECT_TRUE(report.provenance_ok);
  EXPECT_TRUE(report.failure.empty());
}

TEST_F(ValidateTest, DetectsLocalDisorder) {
  std::swap(parts_[1][10], parts_[1][500]);
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.partitions_sorted);
  EXPECT_NE(report.failure.find("partition 1"), std::string::npos);
}

TEST_F(ValidateTest, DetectsGlobalDisorder) {
  // Swap whole partitions: each remains sorted, global order breaks.
  std::swap(parts_[0], parts_[3]);
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.globally_ordered);
}

TEST_F(ValidateTest, DetectsLostElement) {
  parts_[2].pop_back();
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.failure.find("elements"), std::string::npos);
}

TEST_F(ValidateTest, DetectsMutatedKey) {
  // Replace a key with one that keeps order locally but breaks the
  // multiset (duplicate an adjacent value). Every slot is still named
  // once, so only the permutation check fails.
  auto& part = parts_[2];
  ASSERT_GT(part.size(), 2u);
  part[1].key = part[0].key;
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.permutation_ok);
  EXPECT_TRUE(report.partitions_sorted);
  EXPECT_TRUE(report.globally_ordered);
  EXPECT_TRUE(report.provenance_ok);
}

TEST_F(ValidateTest, DetectsBrokenProvenanceMachine) {
  parts_[0][0].prov.prev_machine = 99;
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.failure.find("machine 99"), std::string::npos);
}

TEST_F(ValidateTest, DetectsBrokenProvenanceIndex) {
  parts_[0][0].prov.prev_index = 1u << 30;
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.failure.find("out of range"), std::string::npos);
}

TEST(Validate, DetectsSlotNamedTwice) {
  // Dup-heavy input, so adjacent output items share keys. Copying one
  // item's provenance onto its equal-keyed neighbour passes every key
  // check; only cluster-wide exactly-once coverage catches it.
  const Shards input = make_input(4, /*domain=*/64);
  Parts parts = sort_input(input);
  bool planted = false;
  for (auto& part : parts)
    for (std::size_t i = 1; i < part.size() && !planted; ++i)
      if (part[i].key == part[i - 1].key) {
        part[i].prov = part[i - 1].prov;
        planted = true;
      }
  ASSERT_TRUE(planted);
  const auto report = validate_sorted(parts, input);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.partitions_sorted);
  EXPECT_TRUE(report.globally_ordered);
  EXPECT_FALSE(report.provenance_ok);
  EXPECT_NE(report.failure.find("named twice"), std::string::npos)
      << report.failure;
}

TEST(Validate, AcceptsTwoLevelAmsOutput) {
  // Two-hop provenance names origin ranks rather than level-1 senders.
  const Shards input = make_input(16);
  SortConfig cfg;
  cfg.partition = sort::PartitionScheme::kTwoLevelAms;
  ASSERT_TRUE(cfg.validate().empty()) << cfg.validate();
  const auto report = validate_sorted(sort_input(input, cfg), input);
  EXPECT_TRUE(report.ok()) << report.failure;
}

TEST(Validate, EmptyEverything) {
  const std::vector<std::vector<ItemT>> parts(3);
  const std::vector<std::vector<Key>> input(3);
  const auto report = validate_sorted(parts, input);
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace pgxd::core
