// Property sweep over the full SortConfig switch matrix: every combination
// of {investigator, final-merge strategy, async exchange, exchange chunk
// size, partition scheme} must produce a correct sort on both easy and
// adversarial data. Catches interactions between ablation paths that
// single-switch tests miss.
//
// Every exchange streams read-buffer-sized chunks. The default read buffer
// holds this sweep's whole input, so the "Whole" cases send every (sender,
// rank) range as a single message; the "Buf" cases shrink the buffer so each
// range streams as several chunks, and raise sample_factor by the same
// factor to keep the per-rank sample budget (read_buffer_bytes / q *
// sample_factor) at the default's. On the one-hop schemes the sweep checks
// the chunk count: one per non-empty remote range for Whole, more for Buf.
//
// Every combination runs twice. The "Soa" case checks the output with
// validate_sorted. The "Aos" case also rebuilds every partition from the
// sorted input shards as array-of-`Item` records, merged by the AoS kernel
// of the configured strategy, and requires the sorter's structure-of-arrays
// output to match it item for item — keys, provenance and tie order.
//
// Combinations SortConfig::validate rejects (two-level AMS without the
// async exchange) are asserted to be rejected rather than run: the sweep
// fails if validate() ever starts accepting a combination the engine
// cannot execute, or rejecting one it can.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/validate.hpp"
#include "datagen/distributions.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/kway_merge.hpp"
#include "sort/parallel_kway_merge.hpp"
#include "sort/partition.hpp"

namespace pgxd::core {
namespace {

using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;
using ItemT = Item<Key>;

struct MatrixParam {
  bool investigator;
  MergeAlgo merge;
  bool async_exchange;
  bool whole_ranges;
  bool aos_reference;
  PartitionScheme partition;
  gen::Distribution dist;
};

// Merges the runs of `data` described by `bounds` with the array-of-records
// kernel that matches `algo`; all three break ties toward the lower run.
void aos_merge(std::vector<ItemT>& data, const std::vector<std::size_t>& bounds,
               MergeAlgo algo, std::size_t ranges) {
  auto item_less = [](const ItemT& a, const ItemT& b) { return a.key < b.key; };
  std::vector<ItemT> scratch;
  switch (algo) {
    case MergeAlgo::kParallelKway:
      sort::parallel_kway_merge(data, bounds, scratch, item_less,
                                /*pool=*/nullptr, ranges);
      data.swap(scratch);
      break;
    case MergeAlgo::kPairwiseTree:
      sort::balanced_merge(data, bounds, scratch, item_less);
      break;
    case MergeAlgo::kSequentialKway:
      sort::kway_merge(data, bounds, scratch, item_less);
      break;
  }
}

// Rebuilds every output partition from the sorted input shards as
// array-of-`Item` records. Only the per-(partition, origin) element counts
// are read from `parts`; which slots each partition holds and the order of
// its elements follow from the exchange's structure:
//  - every partition receives one contiguous slice of each sender's sorted
//    local array, slices in partition order, and merges them in sender
//    order (lowest sender wins ties);
//  - under kTwoLevelAms a sender's local array is first rebuilt by level 1:
//    each origin shard's bucket for a rank group goes to that origin's
//    partner in the group (sort::AmsLayout), which merges its contributors
//    in member order. The flat schemes are the one-group case, where every
//    rank is its own only contributor.
std::vector<std::vector<ItemT>> aos_reference(
    const std::vector<std::vector<ItemT>>& parts,
    const std::vector<std::vector<Key>>& shards, MergeAlgo algo,
    bool two_level, std::size_t ranges) {
  const std::size_t p = shards.size();
  std::vector<std::vector<Key>> sorted = shards;
  for (auto& s : sorted) std::sort(s.begin(), s.end());
  // count[j][k]: elements of partition j that originate in shard k.
  std::vector<std::vector<std::size_t>> count(p, std::vector<std::size_t>(p));
  for (std::size_t j = 0; j < p; ++j)
    for (const auto& item : parts[j]) ++count[j][item.prov.prev_machine];

  const sort::AmsLayout layout =
      two_level ? sort::ams_layout(p) : sort::AmsLayout{p, 1, {0, p}};
  std::vector<std::vector<ItemT>> ref(p);
  std::vector<std::size_t> taken(p, 0);  // per origin: slots already placed
  for (std::size_t g = 0; g < layout.groups; ++g) {
    const std::size_t g_lo = layout.start[g];
    const std::size_t g_hi = layout.start[g + 1];
    // The group member that holds origin k's elements after level 1.
    auto holder = [&](std::size_t k) {
      return layout.group_of(k) == g ? k : layout.partner(k, g);
    };
    // Level 1: each member's local array is the merge of its contributors'
    // buckets, contributors in member order.
    std::vector<std::vector<ItemT>> local(p);
    for (std::size_t r = g_lo; r < g_hi; ++r) {
      std::vector<std::size_t> bounds{0};
      for (std::size_t k = 0; k < p; ++k) {
        if (holder(k) != r) continue;
        std::size_t bucket = 0;
        for (std::size_t j = g_lo; j < g_hi; ++j) bucket += count[j][k];
        for (std::size_t i = taken[k]; i < taken[k] + bucket; ++i)
          local[r].push_back(ItemT{
              sorted[k][i], Provenance{static_cast<std::uint32_t>(k), i}});
        taken[k] += bucket;
        bounds.push_back(local[r].size());
      }
      aos_merge(local[r], bounds, MergeAlgo::kPairwiseTree, ranges);
    }
    // Steps (2)-(6): partition j takes the next slice of every member's
    // local array, members in order, and merges the slices.
    std::vector<std::size_t> cursor(p, 0);
    for (std::size_t j = g_lo; j < g_hi; ++j) {
      std::vector<std::size_t> bounds{0};
      for (std::size_t r = g_lo; r < g_hi; ++r) {
        std::size_t len = 0;
        for (std::size_t k = 0; k < p; ++k)
          if (holder(k) == r) len += count[j][k];
        ref[j].insert(ref[j].end(),
                      local[r].begin() +
                          static_cast<std::ptrdiff_t>(cursor[r]),
                      local[r].begin() +
                          static_cast<std::ptrdiff_t>(cursor[r] + len));
        cursor[r] += len;
        bounds.push_back(ref[j].size());
      }
      aos_merge(ref[j], bounds, algo, ranges);
    }
  }
  return ref;
}

class ConfigMatrix : public ::testing::TestWithParam<MatrixParam> {};

// Read-buffer divisor for the "Buf" cases (see the file header).
constexpr std::uint64_t kBufShrink = 64;

TEST_P(ConfigMatrix, SortsCorrectly) {
  const auto param = GetParam();
  const std::size_t machines = 6;
  const std::size_t n = 24000;
  gen::DataGenConfig dcfg;
  dcfg.dist = param.dist;
  dcfg.seed = 31;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(gen::generate_shard(dcfg, n, machines, r));

  SortConfig cfg;
  cfg.use_investigator = param.investigator;
  cfg.final_merge = param.merge;
  cfg.async_exchange = param.async_exchange;
  cfg.partition = param.partition;
  cfg.telemetry = true;  // for the chunk count below
  if (param.whole_ranges) {
    ASSERT_GE(cfg.read_buffer_bytes, n * sizeof(Key))
        << "a range of the input would not fit one read buffer";
  } else {
    cfg.read_buffer_bytes /= kBufShrink;
    cfg.sample_factor *= static_cast<double>(kBufShrink);
  }

  const std::string why = cfg.validate();
  const bool invalid_combo =
      param.partition == PartitionScheme::kTwoLevelAms && !param.async_exchange;
  if (invalid_combo) {
    EXPECT_FALSE(why.empty())
        << "validate() accepted two-level AMS without async exchange";
    EXPECT_NE(why.find("invalid SortConfig"), std::string::npos) << why;
    return;  // constructing the sorter would abort on this config
  }
  ASSERT_TRUE(why.empty()) << why;

  rt::ClusterConfig ccfg;
  ccfg.machines = machines;
  ccfg.threads_per_machine = 4;
  rt::Cluster<Sorter::Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(shards);

  const auto report = validate_sorted(sorter.partitions(), shards);
  ASSERT_TRUE(report.ok()) << report.failure;
  EXPECT_GT(sorter.stats().total_time, 0);
  const auto& parts = sorter.partitions();
  if (param.partition != PartitionScheme::kTwoLevelAms) {
    // One exchange hop, so a range's sender is its items' origin.
    std::uint64_t ranges = 0;
    for (std::size_t j = 0; j < machines; ++j) {
      std::vector<bool> from(machines, false);
      for (const auto& item : parts[j]) from[item.prov.prev_machine] = true;
      for (std::size_t k = 0; k < machines; ++k)
        if (k != j && from[k]) ++ranges;
    }
    const std::uint64_t chunks =
        sorter.merged_metrics().counter_value("sort.exchange.chunks_sent");
    if (param.whole_ranges)
      EXPECT_EQ(chunks, ranges);
    else
      EXPECT_GT(chunks, ranges);
  }
  if (!param.aos_reference) return;

  const auto ref = aos_reference(
      parts, shards, param.merge,
      param.partition == PartitionScheme::kTwoLevelAms,
      ccfg.threads_per_machine);
  for (std::size_t j = 0; j < machines; ++j) {
    ASSERT_EQ(parts[j].size(), ref[j].size()) << "partition " << j;
    for (std::size_t i = 0; i < ref[j].size(); ++i) {
      ASSERT_EQ(parts[j][i].key, ref[j][i].key)
          << "partition " << j << " slot " << i;
      ASSERT_EQ(parts[j][i].prov, ref[j][i].prov)
          << "partition " << j << " slot " << i;
    }
  }
}

std::vector<MatrixParam> all_combinations() {
  std::vector<MatrixParam> out;
  for (bool inv : {true, false})
    for (auto merge : {MergeAlgo::kParallelKway, MergeAlgo::kPairwiseTree,
                       MergeAlgo::kSequentialKway})
      for (bool async_ex : {true, false})
        for (bool whole : {false, true})
          for (bool aos : {false, true})
            for (auto part : {PartitionScheme::kOneLevelSample,
                              PartitionScheme::kHistogramRefine,
                              PartitionScheme::kTwoLevelAms})
              for (auto dist : {gen::Distribution::kUniform,
                                gen::Distribution::kRightSkewed})
                out.push_back(
                    MatrixParam{inv, merge, async_ex, whole, aos, part, dist});
  return out;
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& p = info.param;
  std::string name;
  name += p.investigator ? "Inv" : "NoInv";
  name += p.merge == MergeAlgo::kParallelKway
              ? "Kway"
              : (p.merge == MergeAlgo::kPairwiseTree ? "Tree" : "KwaySeq");
  name += p.async_exchange ? "Async" : "Bsp";
  name += p.whole_ranges ? "Whole" : "Buf";
  name += p.aos_reference ? "Aos" : "Soa";
  name += p.partition == PartitionScheme::kOneLevelSample
              ? "OneLevel"
              : (p.partition == PartitionScheme::kHistogramRefine ? "Histogram"
                                                                  : "TwoLevel");
  name += p.dist == gen::Distribution::kUniform ? "Uniform" : "Skewed";
  return name;
}

// The knob-range guards: every reject message carries the "invalid
// SortConfig" prefix check.sh and the sweep above grep for.
TEST(ConfigValidate, RejectsOutOfRangeKnobs) {
  SortConfig cfg;
  EXPECT_TRUE(cfg.validate().empty());

  cfg.partition_epsilon = 0.0;
  EXPECT_NE(cfg.validate().find("partition_epsilon"), std::string::npos);
  cfg.partition_epsilon = 1.5;
  EXPECT_NE(cfg.validate().find("partition_epsilon"), std::string::npos);
  cfg.partition_epsilon = 0.05;

  cfg.partition_max_rounds = 0;
  EXPECT_NE(cfg.validate().find("partition_max_rounds"), std::string::npos);
  cfg.partition_max_rounds = 10;

  cfg.partition = PartitionScheme::kTwoLevelAms;
  cfg.async_exchange = false;
  EXPECT_NE(cfg.validate().find("async_exchange"), std::string::npos);
  cfg.async_exchange = true;
  EXPECT_TRUE(cfg.validate().empty());

  cfg.partition = PartitionScheme::kHistogramRefine;
  cfg.sample_factor = 0.0;
  EXPECT_NE(cfg.validate().find("sample_factor"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllSwitches, ConfigMatrix,
                         ::testing::ValuesIn(all_combinations()), matrix_name);

}  // namespace
}  // namespace pgxd::core
