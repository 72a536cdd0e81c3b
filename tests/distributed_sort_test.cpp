// Integration tests for the full PGX.D distributed sort pipeline: global
// sortedness, permutation preservation, provenance, load balance across all
// four Fig. 4 distributions, the investigator's effect, async vs BSP
// exchange, buffering, simultaneous sorts, and the query API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/api.hpp"
#include "core/distributed_sort.hpp"
#include "core/sort_report.hpp"
#include "datagen/distributions.hpp"

namespace pgxd::core {
namespace {

using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;

rt::ClusterConfig test_cluster(std::size_t machines, unsigned threads = 8) {
  rt::ClusterConfig cfg;
  cfg.machines = machines;
  cfg.threads_per_machine = threads;
  return cfg;
}

std::vector<std::vector<Key>> make_shards(gen::Distribution dist,
                                          std::size_t total_n,
                                          std::size_t machines,
                                          std::uint64_t seed = 42,
                                          std::uint64_t domain = 1 << 20) {
  gen::DataGenConfig dcfg;
  dcfg.dist = dist;
  dcfg.domain = domain;
  dcfg.seed = seed;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(gen::generate_shard(dcfg, total_n, machines, r));
  return shards;
}

// Asserts the three core postconditions: (a) each partition sorted, (b)
// machine m's max <= machine m+1's min, (c) output is a permutation of the
// input, (d) provenance points back at the exact source element.
void verify_sorted(const Sorter& sorter,
                   const std::vector<std::vector<Key>>& input) {
  const auto& parts = sorter.partitions();

  // (a) + (b): global order across machines.
  const Key* prev_max = nullptr;
  for (const auto& part : parts) {
    for (std::size_t i = 1; i < part.size(); ++i)
      ASSERT_LE(part[i - 1].key, part[i].key);
    if (!part.empty()) {
      if (prev_max != nullptr) {
        ASSERT_LE(*prev_max, part.front().key);
      }
      prev_max = &part.back().key;
    }
  }

  // (c): permutation.
  std::vector<Key> all_in, all_out;
  for (const auto& shard : input) all_in.insert(all_in.end(), shard.begin(), shard.end());
  for (const auto& part : parts)
    for (const auto& item : part) all_out.push_back(item.key);
  ASSERT_EQ(all_in.size(), all_out.size());
  std::sort(all_in.begin(), all_in.end());
  std::sort(all_out.begin(), all_out.end());
  ASSERT_EQ(all_in, all_out);

  // (d): provenance — prev_index refers to the previous machine's locally
  // *sorted* sequence.
  std::vector<std::vector<Key>> sorted_shards = input;
  for (auto& shard : sorted_shards) std::sort(shard.begin(), shard.end());
  for (const auto& part : parts)
    for (const auto& item : part) {
      ASSERT_LT(item.prov.prev_machine, input.size());
      const auto& shard = sorted_shards[item.prov.prev_machine];
      ASSERT_LT(item.prov.prev_index, shard.size());
      ASSERT_EQ(shard[item.prov.prev_index], item.key);
    }
}

class DistributionSweep
    : public ::testing::TestWithParam<std::tuple<gen::Distribution, std::size_t>> {};

TEST_P(DistributionSweep, SortsCorrectlyAndBalanced) {
  const auto [dist, machines] = GetParam();
  const std::size_t total_n = 40000;
  auto shards = make_shards(dist, total_n, machines);
  const auto input = shards;

  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));

  verify_sorted(sorter, input);
  const auto& st = sorter.stats();
  EXPECT_GT(st.total_time, 0);
  // Paper Table II: max share within a small margin of ideal 1/p. Allow 15%
  // relative imbalance at these small test sizes.
  EXPECT_LT(st.balance.imbalance, 1.15)
      << gen::name(dist) << " p=" << machines;
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionSweep,
    ::testing::Combine(::testing::Values(gen::Distribution::kUniform,
                                         gen::Distribution::kNormal,
                                         gen::Distribution::kRightSkewed,
                                         gen::Distribution::kExponential),
                       ::testing::Values(2, 5, 10)));

TEST(DistributedSort, SingleMachineDegenerate) {
  auto shards = make_shards(gen::Distribution::kUniform, 5000, 1);
  const auto input = shards;
  rt::Cluster<Sorter::Msg> cluster(test_cluster(1));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));
  verify_sorted(sorter, input);
}

TEST(DistributedSort, EmptyInput) {
  std::vector<std::vector<Key>> shards(4);
  rt::Cluster<Sorter::Msg> cluster(test_cluster(4));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(shards);
  for (const auto& part : sorter.partitions()) EXPECT_TRUE(part.empty());
}

TEST(DistributedSort, TinyInputFewerElementsThanMachines) {
  std::vector<std::vector<Key>> shards(6);
  shards[2] = {9};
  shards[4] = {3};
  const auto input = shards;
  rt::Cluster<Sorter::Msg> cluster(test_cluster(6));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));
  verify_sorted(sorter, input);
}

TEST(DistributedSort, AllKeysIdentical) {
  std::vector<std::vector<Key>> shards(8, std::vector<Key>(2000, 77));
  const auto input = shards;
  rt::Cluster<Sorter::Msg> cluster(test_cluster(8));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));
  verify_sorted(sorter, input);
  // The investigator must still spread one giant duplicate run evenly.
  EXPECT_LT(sorter.stats().balance.imbalance, 1.05);
}

TEST(DistributedSort, InvestigatorOffCollapsesOnDuplicates) {
  // Same all-identical workload without the investigator: everything lands
  // on one machine (Fig. 3b).
  std::vector<std::vector<Key>> shards(8, std::vector<Key>(2000, 77));
  SortConfig cfg;
  cfg.use_investigator = false;
  rt::Cluster<Sorter::Msg> cluster(test_cluster(8));
  Sorter sorter(cluster, cfg);
  sorter.run(std::move(shards));
  EXPECT_GT(sorter.stats().balance.imbalance, 7.0);
  EXPECT_EQ(sorter.stats().balance.min_size, 0u);
}

TEST(DistributedSort, InvestigatorImprovesSkewedBalance) {
  const std::size_t machines = 10;
  auto shards = make_shards(gen::Distribution::kRightSkewed, 50000, machines,
                            7);  // 70% of keys duplicate one value

  SortConfig with, without;
  without.use_investigator = false;
  rt::Cluster<Sorter::Msg> c1(test_cluster(machines));
  Sorter s1(c1, with);
  s1.run(shards);
  rt::Cluster<Sorter::Msg> c2(test_cluster(machines));
  Sorter s2(c2, without);
  s2.run(shards);

  EXPECT_LT(s1.stats().balance.imbalance, 1.2);
  EXPECT_GT(s2.stats().balance.imbalance, s1.stats().balance.imbalance * 1.5);
}

TEST(DistributedSort, DiscreteParetoHeavySingleValues) {
  // Harder than the paper's datasets: a discrete Pareto where *several*
  // distinct values each hold 8-29% of the mass. Duplicated-splitter
  // division alone cannot fix a heavy value that meets only one splitter;
  // the load-aware clamp (every boundary placed at its target inside its
  // feasible interval) keeps this balanced too.
  for (std::size_t machines : {5u, 10u, 16u}) {
    std::vector<std::vector<Key>> shards(machines);
    for (std::size_t r = 0; r < machines; ++r) {
      Rng rng(derive_seed(7, r));
      shards[r].resize(40000 / machines);
      for (auto& k : shards[r]) {
        double u = rng.uniform();
        while (u <= 0) u = rng.uniform();
        k = static_cast<Key>(std::min(std::pow(u, -2.0) - 1.0, 1e6));
      }
    }
    const auto input = shards;
    rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
    Sorter sorter(cluster, SortConfig{});
    sorter.run(std::move(shards));
    verify_sorted(sorter, input);
    EXPECT_LT(sorter.stats().balance.imbalance, 1.08) << "p=" << machines;
  }
}

TEST(DistributedSort, UnequalShardSizesStayBalanced) {
  // One machine holds 8x the data of another (e.g. a graph partition
  // balanced by edges, not vertices). Weighted sampling must still produce
  // balanced destinations.
  const std::size_t machines = 6;
  gen::DataGenConfig dcfg;
  dcfg.seed = 13;
  std::vector<std::vector<Key>> shards;
  Rng rng(3);
  for (std::size_t r = 0; r < machines; ++r) {
    const std::size_t size = 4000 * (1 + r * 2);  // 4k .. 44k
    std::vector<Key> shard(size);
    for (auto& k : shard) k = rng.bounded(1 << 20);
    shards.push_back(std::move(shard));
  }
  const auto input = shards;
  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));
  verify_sorted(sorter, input);
  EXPECT_LT(sorter.stats().balance.imbalance, 1.1);
}

TEST(DistributedSort, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t& checksum) {
    auto shards = make_shards(gen::Distribution::kExponential, 20000, 6);
    rt::Cluster<Sorter::Msg> cluster(test_cluster(6));
    Sorter sorter(cluster, SortConfig{});
    sorter.run(std::move(shards));
    checksum = 0;
    for (const auto& part : sorter.partitions())
      for (const auto& item : part)
        checksum = checksum * 1099511628211ULL + item.key;
    return sorter.stats().total_time;
  };
  std::uint64_t sum1 = 0, sum2 = 0;
  const auto t1 = run_once(sum1);
  const auto t2 = run_once(sum2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(sum1, sum2);
}

TEST(DistributedSort, StepTimingsAllPopulated) {
  auto shards = make_shards(gen::Distribution::kNormal, 40000, 4);
  rt::Cluster<Sorter::Msg> cluster(test_cluster(4));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));
  const auto& steps = sorter.stats().steps_max;
  EXPECT_GT(steps[Step::kLocalSort], 0);
  EXPECT_GT(steps[Step::kSampling], 0);
  EXPECT_GT(steps[Step::kSplitterSelect], 0);
  EXPECT_GT(steps[Step::kPartitionPlan], 0);
  EXPECT_GT(steps[Step::kExchange], 0);
  EXPECT_GT(steps[Step::kFinalMerge], 0);
  // Steps account for (approximately) the whole run.
  EXPECT_GE(steps.total(), sorter.stats().total_time * 9 / 10);
}

TEST(DistributedSort, AsyncExchangeNoSlowerThanBsp) {
  auto shards = make_shards(gen::Distribution::kUniform, 60000, 8);
  SortConfig async_cfg, sync_cfg;
  sync_cfg.async_exchange = false;
  rt::Cluster<Sorter::Msg> c1(test_cluster(8));
  Sorter s1(c1, async_cfg);
  s1.run(shards);
  rt::Cluster<Sorter::Msg> c2(test_cluster(8));
  Sorter s2(c2, sync_cfg);
  s2.run(shards);
  verify_sorted(s2, shards);
  EXPECT_LE(s1.stats().total_time, s2.stats().total_time);
}

TEST(DistributedSort, NaiveFinalMergeAblationCorrectButSlower) {
  auto shards = make_shards(gen::Distribution::kUniform, 60000, 8);
  SortConfig balanced, naive;
  naive.final_merge = MergeAlgo::kSequentialKway;
  rt::Cluster<Sorter::Msg> c1(test_cluster(8, /*threads=*/32));
  Sorter s1(c1, balanced);
  s1.run(shards);
  rt::Cluster<Sorter::Msg> c2(test_cluster(8, /*threads=*/32));
  Sorter s2(c2, naive);
  s2.run(shards);
  verify_sorted(s2, shards);
  EXPECT_LT(s1.stats().steps_max[Step::kFinalMerge],
            s2.stats().steps_max[Step::kFinalMerge]);
}

TEST(DistributedSort, SampleFactorControlsSampleCount) {
  auto shards = make_shards(gen::Distribution::kUniform, 100000, 4);
  SortConfig small_cfg, big_cfg;
  small_cfg.sample_factor = 0.04;
  big_cfg.sample_factor = 1.0;
  rt::Cluster<Sorter::Msg> c1(test_cluster(4));
  Sorter s1(c1, small_cfg);
  s1.run(shards);
  rt::Cluster<Sorter::Msg> c2(test_cluster(4));
  Sorter s2(c2, big_cfg);
  s2.run(shards);
  EXPECT_LT(s1.stats().machines[1].sample_count,
            s2.stats().machines[1].sample_count);
  // X = 256KB/4 = 64KB -> 8192 u64 samples per machine at factor 1.
  EXPECT_EQ(s2.stats().machines[1].sample_count, 8192u);
}

TEST(DistributedSort, WireBytesAccounted) {
  auto shards = make_shards(gen::Distribution::kUniform, 40000, 4);
  rt::Cluster<Sorter::Msg> cluster(test_cluster(4));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));
  const auto& st = sorter.stats();
  EXPECT_GT(st.wire_bytes_total, 0u);
  EXPECT_GT(st.wire_bytes_samples, 0u);
  EXPECT_LT(st.wire_bytes_samples, st.wire_bytes_total);
  // Data traffic: ~3/4 of the 40000 elements move at 8 key-bytes each
  // (provenance is reconstructed receiver-side, not shipped).
  const std::uint64_t data_bytes = st.wire_bytes_total - st.wire_bytes_samples;
  EXPECT_GT(data_bytes, 40000ull * 8 / 2);
  EXPECT_LT(data_bytes, 40000ull * 12);
}

TEST(DistributedSort, MemoryAccountingPopulated) {
  auto shards = make_shards(gen::Distribution::kUniform, 40000, 4);
  rt::Cluster<Sorter::Msg> cluster(test_cluster(4));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));
  for (const auto& ms : sorter.stats().machines) {
    EXPECT_GT(ms.peak_persistent_bytes, 0u);
    EXPECT_GT(ms.peak_temp_bytes, 0u);
  }
}

TEST(DistributedSort, MoreMachinesReduceTotalTime) {
  // Strong scaling on a fixed problem: 16 machines beat 4.
  auto run_with = [](std::size_t p) {
    auto shards = make_shards(gen::Distribution::kUniform, 1 << 18, p);
    rt::Cluster<Sorter::Msg> cluster(test_cluster(p, /*threads=*/32));
    Sorter sorter(cluster, SortConfig{});
    sorter.run(std::move(shards));
    return sorter.stats().total_time;
  };
  EXPECT_LT(run_with(16), run_with(4));
}

TEST(DistributedSort, SimultaneousSortsBothCorrect) {
  const std::size_t machines = 4;
  auto a = make_shards(gen::Distribution::kUniform, 20000, machines, 1);
  auto b = make_shards(gen::Distribution::kExponential, 15000, machines, 2);
  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
  Sorter s1(cluster, SortConfig{}, /*sort_id=*/0);
  Sorter s2(cluster, SortConfig{}, /*sort_id=*/1);
  s1.set_input(a);
  s2.set_input(b);
  const auto elapsed = sort_simultaneously<Key>(
      cluster, {&s1, &s2});
  EXPECT_GT(elapsed, 0);
  verify_sorted(s1, a);
  verify_sorted(s2, b);
}

TEST(DistributedSort, SimultaneousCheaperThanSequentialRuns) {
  const std::size_t machines = 4;
  auto a = make_shards(gen::Distribution::kUniform, 30000, machines, 1);
  auto b = make_shards(gen::Distribution::kNormal, 30000, machines, 2);

  rt::Cluster<Sorter::Msg> shared(test_cluster(machines));
  Sorter s1(shared, SortConfig{}, 0);
  Sorter s2(shared, SortConfig{}, 1);
  s1.set_input(a);
  s2.set_input(b);
  const auto together = sort_simultaneously<Key>(
      shared, {&s1, &s2});

  rt::Cluster<Sorter::Msg> c1(test_cluster(machines));
  Sorter t1(c1, SortConfig{});
  t1.run(a);
  rt::Cluster<Sorter::Msg> c2(test_cluster(machines));
  Sorter t2(c2, SortConfig{});
  t2.run(b);
  // Interleaving overlaps one sort's communication with the other's compute.
  EXPECT_LT(together, t1.stats().total_time + t2.stats().total_time);
}

// A simultaneous run has no recovery supervisor, so it refuses to start on
// a cluster that schedules a crash or with a sorter that expects recovery.
TEST(DistributedSortDeathTest, SimultaneousRejectsCrashSchedule) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::size_t machines = 4;
  auto ccfg = test_cluster(machines);
  ccfg.net.faults.crashes = {net::CrashEvent{1, sim::kMillisecond}};
  rt::Cluster<Sorter::Msg> cluster(ccfg);
  Sorter s1(cluster, SortConfig{}, /*sort_id=*/0);
  Sorter s2(cluster, SortConfig{}, /*sort_id=*/1);
  s1.set_input(make_shards(gen::Distribution::kUniform, 4000, machines, 1));
  s2.set_input(make_shards(gen::Distribution::kUniform, 4000, machines, 2));
  EXPECT_DEATH(sort_simultaneously<Key>(cluster, {&s1, &s2}),
               "crash schedules are unsupported");
}

TEST(DistributedSortDeathTest, SimultaneousRejectsRecoveryEnabledSorter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::size_t machines = 4;
  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
  SortConfig recovering;
  recovering.recovery.enabled = true;
  Sorter s1(cluster, SortConfig{}, /*sort_id=*/0);
  Sorter s2(cluster, recovering, /*sort_id=*/1);
  s1.set_input(make_shards(gen::Distribution::kUniform, 4000, machines, 1));
  s2.set_input(make_shards(gen::Distribution::kUniform, 4000, machines, 2));
  EXPECT_DEATH(sort_simultaneously<Key>(cluster, {&s1, &s2}),
               "recovery-enabled sorters are unsupported");
}

// A sorter's stats accumulate over its sort, so a second sort on the same
// sorter would report doubled step times, bytes and sample counts. Both
// entry points refuse it.
TEST(DistributedSortDeathTest, SecondSortOnOneSorterIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::size_t machines = 4;
  const auto shards =
      make_shards(gen::Distribution::kUniform, 4000, machines, 1);
  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(shards);
  EXPECT_DEATH(sorter.run(shards), "sorts once");
  EXPECT_DEATH(sort_simultaneously<Key>(cluster, {&sorter}), "sorts once");
}

// The sorter is generic over the key type: a composite struct key with a
// custom comparator (sort by score, tie-break by id).
struct ScoredId {
  std::uint32_t score = 0;
  std::uint32_t id = 0;
  friend bool operator==(const ScoredId&, const ScoredId&) = default;
};
struct ScoredLess {
  bool operator()(const ScoredId& a, const ScoredId& b) const {
    return a.score != b.score ? a.score < b.score : a.id < b.id;
  }
};

TEST(DistributedSort, StructKeysWithCustomComparator) {
  const std::size_t machines = 5;
  Rng rng(77);
  std::vector<std::vector<ScoredId>> shards(machines);
  std::uint32_t next_id = 0;
  for (auto& shard : shards) {
    shard.resize(8000);
    for (auto& rec : shard)
      rec = ScoredId{static_cast<std::uint32_t>(rng.bounded(100)), next_id++};
  }
  std::vector<ScoredId> all;
  for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end(), ScoredLess{});

  rt::Cluster<SortMsg<ScoredId>> cluster(test_cluster(machines));
  DistributedSorter<ScoredId, ScoredLess> sorter(cluster, SortConfig{});
  sorter.run(shards);

  std::vector<ScoredId> got;
  for (const auto& part : sorter.partitions())
    for (const auto& item : part) got.push_back(item.key);
  ASSERT_EQ(got.size(), all.size());
  EXPECT_EQ(got, all);  // composite keys are unique: total order is exact
  EXPECT_LT(sorter.stats().balance.imbalance, 1.1);
}

class JitterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JitterSweep, CorrectUnderMessageReordering) {
  // Latency jitter reorders message arrivals (chunks from one sender can
  // arrive out of order); the exchange must place data by explicit offsets
  // and remain correct under any interleaving.
  auto shards = make_shards(gen::Distribution::kRightSkewed, 40000, 6);
  const auto input = shards;
  rt::ClusterConfig ccfg = test_cluster(6);
  ccfg.net.jitter_ns = 20 * sim::kMicrosecond;  // >> base latency
  ccfg.net.jitter_seed = GetParam();
  rt::Cluster<Sorter::Msg> cluster(ccfg);
  SortConfig cfg;
  cfg.read_buffer_bytes = 4096;  // many small chunks: maximal reordering
  Sorter sorter(cluster, cfg);
  sorter.run(std::move(shards));
  verify_sorted(sorter, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitterSweep,
                         ::testing::Values(1, 7, 42, 1234, 99999));

TEST(DistributedSort, PaperScaleMachineCount) {
  // The paper's largest configuration: 52 machines, 32 threads each.
  const std::size_t machines = 52;
  auto shards = make_shards(gen::Distribution::kExponential, 1 << 18, machines);
  const auto input = shards;
  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines, /*threads=*/32));
  Sorter sorter(cluster, SortConfig{});
  sorter.run(std::move(shards));
  verify_sorted(sorter, input);
  EXPECT_LT(sorter.stats().balance.imbalance, 1.2);
}

TEST(DistributedSort, FloatingPointKeys) {
  const std::size_t machines = 4;
  Rng rng(19);
  std::vector<std::vector<double>> shards(machines);
  for (auto& shard : shards) {
    shard.resize(6000);
    for (auto& k : shard) k = rng.normal(0.0, 1e6);  // negative keys included
  }
  std::vector<double> all;
  for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());

  rt::Cluster<SortMsg<double>> cluster(test_cluster(machines));
  DistributedSorter<double> sorter(cluster, SortConfig{});
  sorter.run(shards);

  std::vector<double> got;
  for (const auto& part : sorter.partitions())
    for (const auto& item : part) got.push_back(item.key);
  EXPECT_EQ(got, all);
  EXPECT_LT(sorter.stats().balance.imbalance, 1.1);
}

TEST(DistributedSort, AlmostSortedInputMovesLittleData) {
  // A globally sorted ramp sharded contiguously: nearly every key already
  // lives on its destination machine, so the exchange ships almost nothing.
  const std::size_t machines = 8;
  std::vector<std::vector<Key>> sorted_shards, random_shards;
  for (std::size_t r = 0; r < machines; ++r) {
    sorted_shards.push_back(
        gen::almost_sorted_shard(80000, 1 << 20, 0.0, 3, machines, r));
    random_shards.push_back(
        gen::almost_sorted_shard(80000, 1 << 20, 1.0, 3, machines, r));
  }
  rt::Cluster<Sorter::Msg> c1(test_cluster(machines));
  Sorter s1(c1, SortConfig{});
  s1.run(sorted_shards);
  rt::Cluster<Sorter::Msg> c2(test_cluster(machines));
  Sorter s2(c2, SortConfig{});
  s2.run(random_shards);
  verify_sorted(s1, sorted_shards);
  // Sorted input sends a small fraction of what shuffled input sends.
  std::uint64_t sent_sorted = 0, sent_random = 0;
  for (const auto& ms : s1.stats().machines) sent_sorted += ms.sent_elements;
  for (const auto& ms : s2.stats().machines) sent_random += ms.sent_elements;
  EXPECT_LT(sent_sorted, sent_random / 5);
}

TEST(DistributedSort, DescendingComparator) {
  auto shards = make_shards(gen::Distribution::kUniform, 20000, 4);
  rt::Cluster<SortMsg<Key>> cluster(test_cluster(4));
  DistributedSorter<Key, std::greater<Key>> sorter(cluster, SortConfig{});
  sorter.run(shards);
  const auto& parts = sorter.partitions();
  const Key* prev_min = nullptr;
  std::size_t total = 0;
  for (const auto& part : parts) {
    for (std::size_t i = 1; i < part.size(); ++i)
      ASSERT_GE(part[i - 1].key, part[i].key);
    if (!part.empty()) {
      if (prev_min != nullptr) {
        ASSERT_GE(*prev_min, part.front().key);
      }
      prev_min = &part.back().key;
    }
    total += part.size();
  }
  EXPECT_EQ(total, 20000u);
}

// --- SortedSequence API ------------------------------------------------------

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    shards_ = make_shards(gen::Distribution::kUniform, 20000, 4, 11,
                          /*domain=*/500);  // duplicates guaranteed
    cluster_ = std::make_unique<rt::Cluster<Sorter::Msg>>(test_cluster(4));
    sorter_ = std::make_unique<Sorter>(*cluster_, SortConfig{});
    sorter_->run(shards_);
    seq_ = std::make_unique<SortedSequence<Key>>(sorter_->partitions());
  }

  std::vector<std::vector<Key>> shards_;
  std::unique_ptr<rt::Cluster<Sorter::Msg>> cluster_;
  std::unique_ptr<Sorter> sorter_;
  std::unique_ptr<SortedSequence<Key>> seq_;
};

TEST_F(ApiTest, SizeMatchesInput) { EXPECT_EQ(seq_->size(), 20000u); }

TEST_F(ApiTest, GlobalIndexingIsSorted) {
  for (std::uint64_t i = 1; i < seq_->size(); i += 97)
    EXPECT_LE(seq_->at(i - 1).key, seq_->at(i).key);
  EXPECT_LE(seq_->at(0).key, seq_->at(seq_->size() - 1).key);
}

TEST_F(ApiTest, FindLocatesFirstOccurrence) {
  // Take an existing key from the middle.
  const Key key = seq_->at(10000).key;
  const auto loc = seq_->find(key);
  ASSERT_TRUE(loc.has_value());
  const auto& item = sorter_->partitions()[loc->machine][loc->index];
  EXPECT_EQ(item.key, key);
  // It is the first occurrence: predecessor (if any) is strictly smaller.
  const auto [l, global] = seq_->lower_bound(key);
  EXPECT_EQ(l, *loc);
  if (global > 0) {
    EXPECT_LT(seq_->at(global - 1).key, key);
  }
}

TEST_F(ApiTest, FindMissingReturnsNullopt) {
  // Domain is [0, 500); 10000 is absent.
  EXPECT_FALSE(seq_->find(10000).has_value());
}

TEST_F(ApiTest, CountMatchesBruteForce) {
  std::map<Key, std::uint64_t> truth;
  for (const auto& shard : shards_)
    for (auto k : shard) ++truth[k];
  for (Key k : {Key{0}, Key{100}, Key{250}, Key{499}}) {
    const auto expect = truth.count(k) ? truth[k] : 0;
    EXPECT_EQ(seq_->count(k), expect) << "key " << k;
  }
}

TEST_F(ApiTest, TopKDescending) {
  const auto top = seq_->top_k(100);
  ASSERT_EQ(top.size(), 100u);
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].key, top[i].key);
  EXPECT_EQ(top[0].key, seq_->at(seq_->size() - 1).key);
}

TEST_F(ApiTest, MachineRangesAscend) {
  std::optional<Key> prev_hi;
  for (std::size_t m = 0; m < seq_->machines(); ++m) {
    const auto range = seq_->machine_range(m);
    if (!range) continue;
    EXPECT_LE(range->first, range->second);
    if (prev_hi) {
      EXPECT_LE(*prev_hi, range->first);
    }
    prev_hi = range->second;
  }
}

// --------------------------------------------------------------- SortReport

// Table II's headline result on the right-skewed distribution: per-rank load
// stays within 1% of uniform (max/min <= 1.01) at p=10, and the flight
// recorder reports it that way.
TEST(SortReport, RightSkewedLoadMaxOverMinWithinOnePercent) {
  const std::size_t machines = 10;
  const std::size_t total_n = 100000;
  auto shards = make_shards(gen::Distribution::kRightSkewed, total_n, machines);

  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
  SortConfig cfg;
  cfg.telemetry = true;
  Sorter sorter(cluster, cfg);
  sorter.run(std::move(shards));

  SortRunInfo info;
  info.distribution = "right-skewed";
  info.n = total_n;
  info.seed = 42;
  const SortReport rep = build_sort_report(sorter, std::move(info));

  EXPECT_EQ(rep.run.machines, machines);
  EXPECT_EQ(rep.items.total, total_n);
  EXPECT_LE(rep.items.max_over_min, 1.01);
  EXPECT_GE(rep.items.max_over_min, 1.0);
  EXPECT_EQ(rep.bytes.total, total_n * Sorter::kStoredBytesPerItem);
  EXPECT_DOUBLE_EQ(rep.bytes.max_over_min, rep.items.max_over_min);
  // Splitter boundaries track the ideal p-quantiles to the same tolerance.
  EXPECT_EQ(rep.splitters.boundary_error.size(), machines - 1);
  EXPECT_LE(rep.splitters.max_error, 0.01);
}

// The report covers every Fig. 7 step by display name, the timings are
// internally consistent, and the telemetry counters cross-check against the
// raw SortStats.
TEST(SortReport, CoversAllStepsAndMatchesStats) {
  const std::size_t machines = 4;
  const std::size_t total_n = 20000;
  auto shards = make_shards(gen::Distribution::kExponential, total_n, machines);

  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
  SortConfig cfg;
  cfg.telemetry = true;
  Sorter sorter(cluster, cfg);
  sorter.run(std::move(shards));
  const SortReport rep = build_sort_report(sorter, SortRunInfo{});

  ASSERT_EQ(rep.phases.size(), kStepCount);
  for (std::size_t i = 0; i < kStepCount; ++i) {
    const Step s = static_cast<Step>(i);
    EXPECT_EQ(rep.phases[i].name, step_name(s));
    EXPECT_LE(rep.phases[i].min_ns, rep.phases[i].mean_ns);
    EXPECT_LE(rep.phases[i].mean_ns, static_cast<double>(rep.phases[i].max_ns));
    EXPECT_EQ(rep.phases[i].max_ns, sorter.stats().steps_max[s]);
  }
  EXPECT_EQ(rep.total_time_ns, sorter.stats().total_time);

  // The merged registry agrees with the raw stats and the fabric.
  const auto& m = rep.metrics;
  EXPECT_EQ(m.counter_value("sort.load.items"), total_n);
  std::uint64_t sent = 0;
  for (const auto& ms : sorter.stats().machines) sent += ms.sent_elements;
  EXPECT_EQ(m.counter_value("sort.exchange.items_sent"), sent);
  EXPECT_GT(rep.network.bytes_sent, 0u);
  EXPECT_EQ(rep.network.messages_dropped, 0u);
  // No buffer pool exists: the section is present and reads zero.
  EXPECT_EQ(rep.pool.leases, 0u);
  EXPECT_EQ(rep.pool.reuses, 0u);
  EXPECT_EQ(rep.pool.fresh_allocs, 0u);
  EXPECT_EQ(rep.pool.returns, 0u);
  EXPECT_EQ(rep.pool.hit_rate, 0.0);

  // And the JSON serialization is a complete, non-trivial document.
  const std::string json = rep.to_json();
  for (const char* needle :
       {"\"phases\"", "\"local-sort\"", "\"send/receive\"", "\"final-merge\"",
        "\"load\"", "\"splitters\"", "\"network\"", "\"pool\"", "\"metrics\""})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
}

// Telemetry off: the sort still runs, per-rank registries stay empty, and
// the report's registry-backed sections read zero while the stats-backed
// sections stay populated.
TEST(SortReport, TelemetryOffLeavesRegistriesEmpty) {
  const std::size_t machines = 3;
  auto shards = make_shards(gen::Distribution::kUniform, 9000, machines);
  const auto input = shards;

  rt::Cluster<Sorter::Msg> cluster(test_cluster(machines));
  SortConfig cfg;
  cfg.telemetry = false;
  Sorter sorter(cluster, cfg);
  sorter.run(std::move(shards));
  verify_sorted(sorter, input);

  for (std::size_t r = 0; r < machines; ++r)
    EXPECT_TRUE(sorter.metrics(r).counters().empty()) << "rank " << r;
  const SortReport rep = build_sort_report(sorter, SortRunInfo{});
  EXPECT_EQ(rep.network.bytes_sent, 0u);
  EXPECT_EQ(rep.items.total, 9000u);
  EXPECT_GT(rep.total_time_ns, 0);
}

}  // namespace
}  // namespace pgxd::core
