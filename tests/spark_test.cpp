// Tests for the Spark sortByKey baseline: correctness, stage structure,
// the modeled overheads, and the comparisons the paper's evaluation relies
// on (PGX.D 2x-3x faster; Spark imbalance on duplicate-heavy data).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/distributed_sort.hpp"
#include "datagen/distributions.hpp"
#include "spark/sort_by_key.hpp"

namespace pgxd::spark {
namespace {

using Key = std::uint64_t;
using Spark = SparkSortByKey<Key>;

rt::ClusterConfig test_cluster(std::size_t machines) {
  rt::ClusterConfig cfg;
  cfg.machines = machines;
  cfg.threads_per_machine = 8;
  return cfg;
}

std::vector<std::vector<Key>> make_shards(gen::Distribution dist,
                                          std::size_t total_n,
                                          std::size_t machines,
                                          std::uint64_t seed = 42) {
  gen::DataGenConfig dcfg;
  dcfg.dist = dist;
  dcfg.seed = seed;
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(gen::generate_shard(dcfg, total_n, machines, r));
  return shards;
}

void verify_sorted(const Spark& spark,
                   const std::vector<std::vector<Key>>& input) {
  const auto& parts = spark.partitions();
  std::vector<Key> all_in, all_out;
  for (const auto& s : input) all_in.insert(all_in.end(), s.begin(), s.end());
  const Key* prev_max = nullptr;
  for (const auto& part : parts) {
    ASSERT_TRUE(std::is_sorted(part.begin(), part.end()));
    if (!part.empty()) {
      if (prev_max != nullptr) {
        ASSERT_LE(*prev_max, part.front());
      }
      prev_max = &part.back();
    }
    all_out.insert(all_out.end(), part.begin(), part.end());
  }
  std::sort(all_in.begin(), all_in.end());
  std::sort(all_out.begin(), all_out.end());
  ASSERT_EQ(all_in, all_out);
}

class SparkSweep : public ::testing::TestWithParam<gen::Distribution> {};

TEST_P(SparkSweep, SortsCorrectly) {
  const std::size_t machines = 6;
  auto shards = make_shards(GetParam(), 30000, machines);
  const auto input = shards;
  rt::Cluster<Spark::Msg> cluster(test_cluster(machines));
  Spark spark(cluster);
  spark.run(std::move(shards));
  verify_sorted(spark, input);
  EXPECT_GT(spark.stats().total_time, 0);
}

INSTANTIATE_TEST_SUITE_P(All, SparkSweep,
                         ::testing::ValuesIn(gen::kAllDistributions));

TEST(Spark, StageTimesPopulatedAndOrdered) {
  auto shards = make_shards(gen::Distribution::kUniform, 40000, 4);
  rt::Cluster<Spark::Msg> cluster(test_cluster(4));
  Spark spark(cluster);
  spark.run(std::move(shards));
  const auto& st = spark.stats();
  EXPECT_GT(st[Stage::kSample], 0);
  EXPECT_GT(st[Stage::kMapShuffle], 0);
  EXPECT_GT(st[Stage::kReduceSort], 0);
  EXPECT_GE(st.total_time,
            st[Stage::kSample] + st[Stage::kMapShuffle] + st[Stage::kReduceSort]);
}

TEST(Spark, StageOverheadDominatesTinyJobs) {
  // Three stages of scheduler overhead floor the runtime even for a
  // trivial input — the Spark small-job tax.
  auto shards = make_shards(gen::Distribution::kUniform, 100, 4);
  rt::Cluster<Spark::Msg> cluster(test_cluster(4));
  const SparkCostProfile profile;
  Spark spark(cluster, profile);
  spark.run(std::move(shards));
  EXPECT_GE(spark.stats().total_time, 3 * profile.stage_overhead);
}

TEST(Spark, DuplicateHeavyDataImbalanced) {
  // No investigator: the dominant duplicated value of the right-skewed
  // dataset lands on one reducer.
  auto shards = make_shards(gen::Distribution::kRightSkewed, 50000, 8);
  rt::Cluster<Spark::Msg> cluster(test_cluster(8));
  Spark spark(cluster);
  spark.run(std::move(shards));
  EXPECT_GT(spark.stats().balance.imbalance, 3.0);
}

TEST(Spark, UniformDataReasonablyBalanced) {
  auto shards = make_shards(gen::Distribution::kUniform, 50000, 8);
  rt::Cluster<Spark::Msg> cluster(test_cluster(8));
  Spark spark(cluster);
  spark.run(std::move(shards));
  // 60 samples/partition bounds the quantile error; generous margin.
  EXPECT_LT(spark.stats().balance.imbalance, 1.5);
}

TEST(Spark, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto shards = make_shards(gen::Distribution::kNormal, 20000, 4);
    rt::Cluster<Spark::Msg> cluster(test_cluster(4));
    Spark spark(cluster);
    spark.run(std::move(shards));
    return spark.stats().total_time;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Spark, PgxdBeatsSparkOnSameWorkload) {
  // The paper's headline: 2x-3x faster on the same data and cluster.
  const std::size_t machines = 8;
  const std::size_t n = 1 << 18;
  auto shards = make_shards(gen::Distribution::kUniform, n, machines);

  rt::Cluster<Spark::Msg> sc(test_cluster(machines));
  Spark spark(sc);
  spark.run(shards);

  using Pgxd = core::DistributedSorter<Key>;
  rt::Cluster<Pgxd::Msg> pc(test_cluster(machines));
  Pgxd pgxd(pc, core::SortConfig{});
  pgxd.run(shards);

  const double ratio = static_cast<double>(spark.stats().total_time) /
                       static_cast<double>(pgxd.stats().total_time);
  EXPECT_GT(ratio, 1.5) << "PGX.D should clearly beat the Spark baseline";
}

TEST(Spark, WireBytesIncludeRowOverhead) {
  auto shards = make_shards(gen::Distribution::kUniform, 40000, 4);
  rt::Cluster<Spark::Msg> cluster(test_cluster(4));
  SparkCostProfile profile;
  profile.row_overhead_factor = 2.0;
  Spark spark(cluster, profile);
  spark.run(std::move(shards));
  // ~3/4 of rows shuffle remotely at 16 wire bytes each.
  EXPECT_GT(spark.stats().wire_bytes, 40000ull * 3 / 4 * 16 / 2);
}

// TimSort's run decomposition, counted by the reduce stage's scan. Every
// expected count is the runs_found of the TimSort port the scan replaced,
// on the same input.
std::size_t runs_of(const std::vector<int>& v) {
  return timsort_runs(std::span<const int>(v), std::less<int>{});
}

TEST(Timsort, AlreadySortedUsesOneRunAndNoMerges) {
  std::vector<int> v(10000);
  std::iota(v.begin(), v.end(), 0);
  EXPECT_EQ(runs_of(v), 1u);  // one run, so TimSort merges nothing
}

TEST(Timsort, ReverseSortedIsOneReversedRun) {
  std::vector<int> v(10000);
  std::iota(v.begin(), v.end(), 0);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(runs_of(v), 1u);  // one strictly descending run
  EXPECT_EQ(timsort_runs(std::span<const int>(v), std::greater<int>{}), 1u);
}

TEST(Timsort, PartiallySortedFindsLongRuns) {
  // Eight sorted blocks of 4,096 random keys: eight natural runs, far fewer
  // than random data's n / minrun.
  std::vector<int> v;
  Rng rng(3);
  for (int b = 0; b < 8; ++b) {
    std::vector<int> block(4096);
    for (auto& x : block) x = static_cast<int>(rng.bounded(1 << 20));
    std::sort(block.begin(), block.end());
    v.insert(v.end(), block.begin(), block.end());
  }
  EXPECT_EQ(runs_of(v), 8u);
}

TEST(Timsort, SawtoothManyRuns) {
  // 300 ramps of 10-209 keys, each ascending or descending.
  std::vector<int> v;
  Rng rng(23);
  for (int cycle = 0; cycle < 300; ++cycle) {
    const int len = 10 + static_cast<int>(rng.bounded(200));
    const bool asc = rng.bounded(2) == 0;
    for (int i = 0; i < len; ++i) v.push_back(asc ? i : len - i);
  }
  EXPECT_EQ(runs_of(v), 299u);
  EXPECT_EQ(timsort_runs(std::span<const int>(v), std::greater<int>{}), 299u);
}

TEST(Timsort, AllEqual) {
  EXPECT_EQ(runs_of(std::vector<int>(100000, 7)), 1u);
}

TEST(Timsort, OrganPipe) {
  std::vector<int> v;
  for (int i = 0; i < 30000; ++i) v.push_back(i);
  for (int i = 30000; i > 0; --i) v.push_back(i);
  EXPECT_EQ(runs_of(v), 2u);  // one ascending, one descending
}

TEST(TimsortRuns, EqualNeighboursEndADescendingRun) {
  // 500, 499, 499, 498, 498, ...: an equal neighbour ends every strictly
  // descending run after two keys, so each run is extended to minrun (63 at
  // n = 1000).
  std::vector<int> v(1000);
  for (int i = 0; i < 1000; ++i) v[i] = (1000 - i) / 2;
  EXPECT_EQ(runs_of(v), 16u);
}

TEST(TimsortRuns, ShortRunsExtendToMinRun) {
  // 0, 1, 0, 1, ...: every natural run is two keys, so every run but the
  // last takes minrun keys (n below 64 is one run; minrun is 32 at 64 and
  // at 1024, 33 at 65 and 63 at 1000).
  const std::pair<std::size_t, std::size_t> want[] = {
      {0, 0}, {1, 0}, {2, 1}, {63, 1}, {64, 2}, {65, 2}, {1000, 16}, {1024, 32}};
  for (const auto& [n, runs] : want) {
    std::vector<int> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<int>(i & 1);
    EXPECT_EQ(runs_of(v), runs) << "n=" << n;
  }
}

// What the reduce stage's sort must not move: the simulated total, each
// stage's max, the wire bytes and the output keys. The values were recorded
// with the TimSort port the reduce stage used to run, so they pin the run
// count it charges by and the order it leaves.
struct SparkOutcome {
  sim::SimTime total = 0;
  std::array<sim::SimTime, kStageCount> stages{};
  std::uint64_t wire_bytes = 0;
  std::uint64_t output_hash = 0;
  std::size_t largest_partition = 0;

  bool operator==(const SparkOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SparkOutcome& o) {
  return os << "{" << o.total << ", {" << o.stages[0] << ", " << o.stages[1]
            << ", " << o.stages[2] << "}, " << o.wire_bytes << ", 0x"
            << std::hex << o.output_hash << std::dec << "ull, "
            << o.largest_partition << "}";
}

SparkOutcome spark_outcome(std::vector<std::vector<Key>> shards) {
  rt::Cluster<Spark::Msg> cluster(test_cluster(shards.size()));
  Spark spark(cluster);
  spark.run(std::move(shards));
  SparkOutcome o{spark.stats().total_time, spark.stats().stage_time,
                 spark.stats().wire_bytes, 0xcbf29ce484222325ull, 0};
  // FNV-1a over every partition's size and keys.
  const auto add = [&](std::uint64_t v) {
    o.output_hash = (o.output_hash ^ v) * 0x100000001b3ull;
  };
  for (const auto& part : spark.partitions()) {
    add(part.size());
    for (const Key k : part) add(k);
    o.largest_partition = std::max(o.largest_partition, part.size());
  }
  return o;
}

std::vector<std::vector<Key>> almost_sorted_shards(std::size_t total_n,
                                                   double disorder,
                                                   std::size_t machines) {
  std::vector<std::vector<Key>> shards;
  for (std::size_t r = 0; r < machines; ++r)
    shards.push_back(
        gen::almost_sorted_shard(total_n, 1ull << 40, disorder, 7, machines, r));
  return shards;
}

TEST(Spark, SimulatedOutcomeIsPinned) {
  constexpr std::size_t kN = 1 << 15;
  // A global descending ramp, cut into contiguous shards.
  std::vector<std::vector<Key>> descending(6);
  for (std::size_t i = 0; i < kN; ++i)
    descending[i * 6 / kN].push_back(3 * (kN - i));
  const struct {
    const char* name;
    std::vector<std::vector<Key>> shards;
    SparkOutcome want;
  } cases[] = {
      {"uniform", make_shards(gen::Distribution::kUniform, kN, 6),
       {527605, {164501, 167916, 195188}, 287581, 0xa4fef3086aaa80dbull, 6632}},
      {"right-skewed", make_shards(gen::Distribution::kRightSkewed, kN, 6),
       {607176, {164501, 167916, 274759}, 286950, 0x10280b6ce98f41feull, 22931}},
      {"almost-sorted 0%", almost_sorted_shards(kN, 0.0, 6),
       {495614, {164501, 167916, 163197}, 10336, 0x2e73b176d830f91bull, 5601}},
      {"almost-sorted 1%", almost_sorted_shards(kN, 0.01, 6),
       {509103, {164501, 167916, 176686}, 24377, 0x16c7c706e84f58c3ull, 5704}},
      {"descending", descending,
       {516222, {164501, 167916, 183805}, 343830, 0x52457655ad9dd44bull, 5817}},
      // 400 keys over 12 reducers: every partition is below TimSort's
      // 64-key minimum merge size.
      {"tiny partitions", make_shards(gen::Distribution::kUniform, 400, 12),
       {493305, {166950, 150112, 176243}, 8840, 0xfaf1e6a32c16123bull, 34}},
  };
  for (const auto& c : cases)
    EXPECT_EQ(spark_outcome(c.shards), c.want) << c.name;
  EXPECT_LT(cases[5].want.largest_partition, 64u);
}

TEST(Spark, StageNames) {
  EXPECT_STREQ(stage_name(Stage::kSample), "sample");
  EXPECT_STREQ(stage_name(Stage::kMapShuffle), "map/shuffle-write");
  EXPECT_STREQ(stage_name(Stage::kReduceSort), "reduce/fetch+sort");
}

}  // namespace
}  // namespace pgxd::spark
