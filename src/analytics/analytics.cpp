#include <algorithm>

#include "analytics/pagerank.hpp"

namespace pgxd::analytics {

std::vector<double> pagerank_reference(const graph::CsrGraph& graph,
                                       unsigned iterations, double damping) {
  const std::size_t n = graph.num_vertices();
  std::vector<double> ranks(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (unsigned iter = 0; iter < iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (graph::VertexId v = 0; v < n; ++v) {
      const auto neighbors = graph.neighbors(v);
      if (neighbors.empty()) continue;
      const double share = ranks[v] / static_cast<double>(neighbors.size());
      for (const auto u : neighbors) next[u] += share;
    }
    for (graph::VertexId v = 0; v < n; ++v)
      ranks[v] = (1.0 - damping) / static_cast<double>(n) + damping * next[v];
  }
  return ranks;
}

}  // namespace pgxd::analytics
