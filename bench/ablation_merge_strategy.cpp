// Ablation: the three final-merge strategies for step (6) — the single-pass
// parallel k-way merge (default), the Fig. 2 balanced pairwise tree, and a
// sequential k-way loser-tree pass. They differ on the simulated clock
// only: the host runs one loser-tree merge under all three.
//
// Expectation: the pairwise tree parallelizes every level across the
// machine's worker threads, so it beats the sequential pass by roughly the
// thread count; the single-pass k-way merge then drops the tree's
// once-per-level data movement to one move per element, winning again —
// and more the larger the processor count (more runs, deeper tree).
#include <cstdio>

#include "bench_common.hpp"

using namespace pgxd;
using namespace pgxd::bench;

int main(int argc, char** argv) {
  Flags flags;
  declare_common_flags(flags);
  flags.parse(argc, argv);
  BenchEnv env = env_from_flags(flags);

  print_header("Ablation: final-merge strategy (parallel k-way vs Fig. 2 "
               "tree vs sequential k-way)",
               "expectation: kway < tree < seq on every processor count",
               env);

  Table t({"procs", "merge kway (s)", "merge tree (s)", "merge seq (s)",
           "kway vs tree", "kway vs seq", "total kway (s)"});
  for (auto p : env.procs) {
    core::SortConfig kway, tree, seq;
    kway.final_merge = core::MergeAlgo::kParallelKway;
    tree.final_merge = core::MergeAlgo::kPairwiseTree;
    seq.final_merge = core::MergeAlgo::kSequentialKway;
    const auto a = run_pgxd(env, p, dist_shards(env, gen::Distribution::kUniform, p),
                            kway);
    const auto b = run_pgxd(env, p, dist_shards(env, gen::Distribution::kUniform, p),
                            tree);
    const auto c = run_pgxd(env, p, dist_shards(env, gen::Distribution::kUniform, p),
                            seq);
    const auto am = a.stats.steps_max[core::Step::kFinalMerge];
    const auto bm = b.stats.steps_max[core::Step::kFinalMerge];
    const auto cm = c.stats.steps_max[core::Step::kFinalMerge];
    t.row({std::to_string(p), seconds(am), seconds(bm), seconds(cm),
           Table::fmt(static_cast<double>(bm) / static_cast<double>(am), 2) + "x",
           Table::fmt(static_cast<double>(cm) / static_cast<double>(am), 2) + "x",
           seconds(a.stats.total_time)});
  }
  emit(t, flags);
  return 0;
}
