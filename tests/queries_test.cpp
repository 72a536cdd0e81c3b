// Tests for the in-simulation distributed query engine (find / count /
// top_k over sorted distributed data).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/queries.hpp"
#include "datagen/distributions.hpp"

namespace pgxd {
namespace {

// --- DistributedQueries -----------------------------------------------------

using Key = std::uint64_t;
using Sorter = core::DistributedSorter<Key>;
using Queries = core::DistributedQueries<Key>;

class QueriesTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kMachines = 6;

  void SetUp() override {
    gen::DataGenConfig dcfg;
    dcfg.dist = gen::Distribution::kUniform;
    dcfg.domain = 300;  // guarantees duplicates
    dcfg.seed = 5;
    for (std::size_t r = 0; r < kMachines; ++r)
      shards_.push_back(gen::generate_shard(dcfg, 30000, kMachines, r));

    rt::ClusterConfig ccfg;
    ccfg.machines = kMachines;
    ccfg.threads_per_machine = 8;
    sort_cluster_ = std::make_unique<rt::Cluster<Sorter::Msg>>(ccfg);
    sorter_ = std::make_unique<Sorter>(*sort_cluster_, core::SortConfig{});
    sorter_->run(shards_);

    query_cluster_ = std::make_unique<rt::Cluster<Queries::Msg>>(ccfg);
    queries_ = std::make_unique<Queries>(*query_cluster_,
                                         sorter_->partitions());
    seq_ = std::make_unique<core::SortedSequence<Key>>(sorter_->partitions());
  }

  std::vector<std::vector<Key>> shards_;
  std::unique_ptr<rt::Cluster<Sorter::Msg>> sort_cluster_;
  std::unique_ptr<Sorter> sorter_;
  std::unique_ptr<rt::Cluster<Queries::Msg>> query_cluster_;
  std::unique_ptr<Queries> queries_;
  std::unique_ptr<core::SortedSequence<Key>> seq_;
};

TEST_F(QueriesTest, FindMatchesHostSideApi) {
  for (Key k : {Key{0}, Key{150}, Key{299}}) {
    const auto in_sim = queries_->find(k);
    const auto host = seq_->find(k);
    ASSERT_EQ(in_sim.found.has_value(), host.has_value()) << "key " << k;
    if (host) {
      EXPECT_EQ(in_sim.found->machine, host->machine);
      EXPECT_EQ(in_sim.found->index, host->index);
    }
    EXPECT_GT(in_sim.elapsed, 0);  // broadcast + reply latency is modeled
  }
}

TEST_F(QueriesTest, FindMissingKey) {
  const auto r = queries_->find(100000);
  EXPECT_FALSE(r.found.has_value());
}

TEST_F(QueriesTest, CountMatchesBruteForce) {
  std::map<Key, std::uint64_t> truth;
  for (const auto& shard : shards_)
    for (auto k : shard) ++truth[k];
  for (Key k : {Key{1}, Key{42}, Key{299}, Key{500}}) {
    const auto r = queries_->count(k);
    EXPECT_EQ(r.count, truth.count(k) ? truth[k] : 0) << "key " << k;
  }
}

TEST_F(QueriesTest, TopKMatchesGlobalSort) {
  std::vector<Key> all;
  for (const auto& shard : shards_) all.insert(all.end(), shard.begin(), shard.end());
  std::sort(all.begin(), all.end(), std::greater<>());
  const auto r = queries_->top_k(50);
  ASSERT_EQ(r.top.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(r.top[i], all[i]) << i;
}

TEST_F(QueriesTest, TopKLargerThanDataset) {
  const auto r = queries_->top_k(1u << 20);
  EXPECT_EQ(r.top.size(), 30000u);  // the whole (30000-key) dataset
  EXPECT_TRUE(std::is_sorted(r.top.begin(), r.top.end(), std::greater<>()));
}

TEST_F(QueriesTest, QuantileMatchesGlobalIndexing) {
  core::SortedSequence<Key> seq(sorter_->partitions());
  for (double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    const auto r = queries_->quantile(q);
    ASSERT_TRUE(r.found.has_value()) << "q=" << q;
    ASSERT_EQ(r.top.size(), 1u);
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(seq.size() - 1) + 0.5);
    EXPECT_EQ(r.top[0], seq.at(target).key) << "q=" << q;
    EXPECT_GT(r.elapsed, 0);
  }
}

TEST_F(QueriesTest, QueriesAreCheapRelativeToSort) {
  const auto r = queries_->find(42);
  EXPECT_LT(r.elapsed, sorter_->stats().total_time / 5);
}

}  // namespace
}  // namespace pgxd
