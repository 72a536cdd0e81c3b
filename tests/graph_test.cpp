// Tests for the graph substrate: CSR construction, RMAT / power-law
// generation, PGX.D-style partitioning (ghost nodes, edge chunks), and the
// twitter-like key generator behind Fig. 8 / Table III.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/stats.hpp"
#include "graph/csr.hpp"
#include "graph/generate.hpp"
#include "graph/partition.hpp"
#include "graph/twitter.hpp"

namespace pgxd::graph {
namespace {

TEST(Csr, FromEdgesBasic) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {2, 0}};
  const auto g = CsrGraph::from_edges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_degree(2), 2u);
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 2}));
  const auto in = g.in_degrees();
  EXPECT_EQ(in, (std::vector<std::uint64_t>{2, 1, 2}));
}

TEST(Csr, EmptyGraph) {
  const auto g = CsrGraph::from_edges(4, {});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(g.out_degree(v), 0u);
}

TEST(Rmat, EdgeCountAndRangeRespected) {
  RmatConfig cfg;
  cfg.num_vertices = 1 << 10;
  cfg.num_edges = 20000;
  const auto edges = rmat_edges(cfg);
  EXPECT_EQ(edges.size(), 20000u);
  for (const auto& e : edges) {
    EXPECT_LT(e.src, cfg.num_vertices);
    EXPECT_LT(e.dst, cfg.num_vertices);
  }
}

TEST(Rmat, DeterministicPerSeed) {
  RmatConfig cfg;
  cfg.num_vertices = 256;
  cfg.num_edges = 1000;
  const auto a = rmat_edges(cfg);
  const auto b = rmat_edges(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
  }
}

TEST(Rmat, DegreeDistributionIsSkewed) {
  RmatConfig cfg;
  cfg.num_vertices = 1 << 12;
  cfg.num_edges = 1 << 16;
  const auto g = rmat_graph(cfg);
  std::uint64_t max_deg = 0;
  std::size_t zeros = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
    zeros += (g.out_degree(v) == 0);
  }
  const double mean = static_cast<double>(g.num_edges()) / g.num_vertices();
  // Power-law: hubs far above the mean and many isolated vertices.
  EXPECT_GT(static_cast<double>(max_deg), mean * 20);
  EXPECT_GT(zeros, g.num_vertices() / 10);
}

TEST(PowerlawDegrees, RangeAndSkew) {
  const auto d = powerlaw_degrees(100000, 2.1, 1000000, 3);
  std::uint64_t max_d = 0;
  std::size_t ones = 0;
  for (auto x : d) {
    ASSERT_GE(x, 1u);
    ASSERT_LE(x, 1000000u);
    max_d = std::max(max_d, x);
    ones += (x == 1);
  }
  EXPECT_GT(ones, 40000u);         // most vertices have tiny degree
  EXPECT_GT(max_d, 10000u);        // and hubs exist
}

TEST(Partition, BlocksCoverAllVerticesOnce) {
  RmatConfig cfg;
  cfg.num_vertices = 1 << 10;
  cfg.num_edges = 1 << 14;
  const auto g = rmat_graph(cfg);
  for (std::size_t machines : {1u, 3u, 8u}) {
    const auto p = partition_by_edges(g, machines);
    ASSERT_EQ(p.block_start.size(), machines + 1);
    EXPECT_EQ(p.block_start.front(), 0u);
    EXPECT_EQ(p.block_start.back(), g.num_vertices());
    EXPECT_TRUE(std::is_sorted(p.block_start.begin(), p.block_start.end()));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto m = p.vertex_owner[v];
      EXPECT_GE(v, p.block_start[m]);
      EXPECT_LT(v, p.block_start[m + 1]);
    }
  }
}

TEST(Partition, EdgeBalanceWithinFactorTwo) {
  RmatConfig cfg;
  cfg.num_vertices = 1 << 12;
  cfg.num_edges = 1 << 17;
  const auto g = rmat_graph(cfg);
  const std::size_t machines = 8;
  const auto p = partition_by_edges(g, machines);
  const auto row = g.row_ptr();
  std::vector<std::uint64_t> per_machine;
  for (std::size_t m = 0; m < machines; ++m)
    per_machine.push_back(row[p.block_start[m + 1]] - row[p.block_start[m]]);
  const auto r = pgxd::balance_report(per_machine);
  // Hub vertices bound what contiguous partitioning can do; RMAT hubs are
  // large but not > half the edges here.
  EXPECT_LT(r.imbalance, 2.0);
}

TEST(Ghosts, CountsAreConsistent) {
  RmatConfig cfg;
  cfg.num_vertices = 1 << 10;
  cfg.num_edges = 1 << 14;
  const auto g = rmat_graph(cfg);
  const auto p = partition_by_edges(g, 4);
  const auto total = total_ghost_stats(g, p);
  // Ghosting can only reduce messages: distinct endpoints <= crossing edges.
  EXPECT_LE(total.ghost_vertices, total.crossing_edges);
  EXPECT_GE(total.message_reduction, 1.0);
  // Per-machine stats sum to the totals.
  std::uint64_t crossing = 0;
  for (std::size_t m = 0; m < 4; ++m)
    crossing += ghost_stats(g, p, m).crossing_edges;
  EXPECT_EQ(crossing, total.crossing_edges);
}

TEST(Ghosts, SingleMachineHasNoCrossingEdges) {
  const auto g = rmat_graph({.num_vertices = 128, .num_edges = 1000});
  const auto p = partition_by_edges(g, 1);
  const auto s = total_ghost_stats(g, p);
  EXPECT_EQ(s.crossing_edges, 0u);
  EXPECT_EQ(s.ghost_vertices, 0u);
}

TEST(EdgeChunks, CoverMachineEdgesExactly) {
  RmatConfig cfg;
  cfg.num_vertices = 1 << 10;
  cfg.num_edges = 1 << 14;
  const auto g = rmat_graph(cfg);
  const auto p = partition_by_edges(g, 4);
  const auto row = g.row_ptr();
  for (std::size_t m = 0; m < 4; ++m) {
    const auto chunks = edge_chunks(g, p, m, 8);
    const std::uint64_t lo = row[p.block_start[m]];
    const std::uint64_t hi = row[p.block_start[m + 1]];
    if (hi == lo) {
      EXPECT_TRUE(chunks.empty());
      continue;
    }
    ASSERT_FALSE(chunks.empty());
    EXPECT_EQ(chunks.front().first_offset, lo);
    EXPECT_EQ(chunks.back().last_offset, hi);
    for (std::size_t c = 1; c < chunks.size(); ++c)
      EXPECT_EQ(chunks[c].first_offset, chunks[c - 1].last_offset);
    // Chunks are near-equal in edge count.
    for (const auto& ch : chunks) {
      EXPECT_LE(ch.last_offset - ch.first_offset, (hi - lo) / 8 + 2);
      EXPECT_LE(ch.first_vertex, ch.last_vertex);
    }
  }
}

TEST(Twitter, KeysInTableIIIDomain) {
  TwitterConfig cfg;
  cfg.total_keys = 20000;
  const auto keys = twitter_shard(cfg, 4, 1);
  for (auto k : keys) EXPECT_LE(k, kTwitterKeyMax);
}

TEST(Twitter, DegreeToKeyMonotoneAndBounded) {
  const std::uint64_t max_deg = 1000000;
  std::uint64_t prev = 0;
  for (std::uint64_t d : {1ULL, 2ULL, 10ULL, 1000ULL, 1000000ULL}) {
    const auto k = degree_to_key(d, max_deg);
    EXPECT_GE(k, prev);
    EXPECT_LE(k, kTwitterKeyMax);
    prev = k;
  }
  EXPECT_EQ(degree_to_key(1, max_deg), 0u);
  // Degrees above the cap clamp to the top of the domain.
  EXPECT_GE(degree_to_key(max_deg, max_deg), kTwitterKeyMax * 95 / 100);
}

TEST(Twitter, DuplicateRichButNoDominantKey) {
  TwitterConfig cfg;
  cfg.total_keys = 50000;
  const auto keys = twitter_shard(cfg, 1, 0);
  std::unordered_map<std::uint64_t, std::size_t> freq;
  for (auto k : keys) ++freq[k];
  // Duplicate-rich: far fewer distinct values than keys.
  EXPECT_LT(freq.size(), keys.size() / 4);
  // ...but no single value dominates (the paper's Spark baseline loses only
  // ~2.6x on Twitter, so the dataset cannot collapse onto one reducer).
  std::size_t top = 0;
  for (const auto& [k, c] : freq) top = std::max(top, c);
  EXPECT_LT(top, keys.size() / 20);
  // Low keys still carry most of the mass (power-law degrees).
  std::size_t low = 0;
  for (auto k : keys) low += (k < kTwitterKeyMax / 4);
  EXPECT_GT(low, keys.size() / 2);
}

TEST(Twitter, ShardsDeterministicAndDistinct) {
  TwitterConfig cfg;
  cfg.total_keys = 10000;
  const auto a = twitter_shard(cfg, 4, 2);
  const auto b = twitter_shard(cfg, 4, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, twitter_shard(cfg, 4, 3));
}

}  // namespace
}  // namespace pgxd::graph
