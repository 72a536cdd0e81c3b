// Tests for the distributed PageRank against a single-node reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analytics/pagerank.hpp"
#include "graph/generate.hpp"

namespace pgxd::analytics {
namespace {

rt::ClusterConfig cluster_cfg(std::size_t machines) {
  rt::ClusterConfig cfg;
  cfg.machines = machines;
  cfg.threads_per_machine = 4;
  return cfg;
}

graph::CsrGraph test_graph(std::uint64_t seed = 7) {
  graph::RmatConfig gcfg;
  gcfg.num_vertices = 1 << 10;
  gcfg.num_edges = 1 << 13;
  gcfg.seed = seed;
  return graph::rmat_graph(gcfg);
}

// --- PageRank ----------------------------------------------------------------

class PageRankSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PageRankSweep, MatchesReferenceAcrossMachineCounts) {
  const std::size_t machines = GetParam();
  const auto g = test_graph();
  const auto part = graph::partition_by_edges(g, machines);
  rt::Cluster<PageRankMsg> cluster(cluster_cfg(machines));
  DistributedPageRank pr(cluster, g, part);
  const auto ranks = pr.run();
  const auto expect = pagerank_reference(g, 20, 0.85);
  ASSERT_EQ(ranks.size(), expect.size());
  for (std::size_t v = 0; v < ranks.size(); ++v)
    ASSERT_NEAR(ranks[v], expect[v], 1e-12) << "vertex " << v;
  EXPECT_GT(pr.stats().total_time, 0);
}

INSTANTIATE_TEST_SUITE_P(Machines, PageRankSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(PageRank, RanksSumToOneIsh) {
  const auto g = test_graph(9);
  const auto part = graph::partition_by_edges(g, 4);
  rt::Cluster<PageRankMsg> cluster(cluster_cfg(4));
  DistributedPageRank pr(cluster, g, part);
  const auto ranks = pr.run();
  double sum = 0;
  for (auto r : ranks) sum += r;
  // Dangling vertices leak rank mass; with RMAT's many zero-degree
  // vertices the sum settles below 1 but must stay positive and bounded.
  EXPECT_GT(sum, 0.1);
  EXPECT_LE(sum, 1.0 + 1e-9);
}

TEST(PageRank, HubsOutrankLeaves) {
  const auto g = test_graph(11);
  const auto part = graph::partition_by_edges(g, 4);
  rt::Cluster<PageRankMsg> cluster(cluster_cfg(4));
  DistributedPageRank pr(cluster, g, part);
  const auto ranks = pr.run();
  const auto in_deg = g.in_degrees();
  // The most-cited vertex must outrank any zero-in-degree vertex.
  const auto hub = static_cast<std::size_t>(
      std::max_element(in_deg.begin(), in_deg.end()) - in_deg.begin());
  for (std::size_t v = 0; v < ranks.size(); ++v)
    if (in_deg[v] == 0) {
      ASSERT_GT(ranks[hub], ranks[v]);
    }
}

TEST(PageRank, GhostAggregationReducesWireBytes) {
  const auto g = test_graph(13);
  const auto part = graph::partition_by_edges(g, 8);

  PageRankConfig with, without;
  without.ghost_aggregation = false;
  with.iterations = without.iterations = 5;

  rt::Cluster<PageRankMsg> c1(cluster_cfg(8));
  DistributedPageRank pr1(c1, g, part, with);
  const auto r1 = pr1.run();
  rt::Cluster<PageRankMsg> c2(cluster_cfg(8));
  DistributedPageRank pr2(c2, g, part, without);
  const auto r2 = pr2.run();

  // Same math, different message shapes.
  for (std::size_t v = 0; v < r1.size(); ++v) ASSERT_NEAR(r1[v], r2[v], 1e-12);
  // RMAT crossing edges greatly outnumber distinct ghost targets.
  EXPECT_LT(pr1.stats().wire_bytes, pr2.stats().wire_bytes / 2);
  EXPECT_LE(pr1.stats().total_time, pr2.stats().total_time);
}

TEST(PageRank, DeterministicAcrossRuns) {
  const auto g = test_graph(15);
  const auto part = graph::partition_by_edges(g, 4);
  auto run_once = [&] {
    rt::Cluster<PageRankMsg> cluster(cluster_cfg(4));
    DistributedPageRank pr(cluster, g, part);
    pr.run();
    return pr.stats().total_time;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pgxd::analytics
