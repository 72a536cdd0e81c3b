// Ablation: partially sorted input — the workload TimSort is adaptive on.
//
// The paper notes Spark chose TimSort because "it performs better when the
// data is partially sorted". The Spark baseline's reduce-stage sort charge
// follows TimSort's run decomposition of each fetched partition, counted by
// one scan (spark::timsort_runs, charged by adaptive_sort_time), so
// sorted-ish data genuinely narrows Spark's gap; the PGX.D local sort is a
// non-adaptive parallel quicksort and keeps its cost. This bench sweeps the
// disorder fraction from fully sorted to fully random.
#include <cstdio>

#include "bench_common.hpp"

using namespace pgxd;
using namespace pgxd::bench;

int main(int argc, char** argv) {
  Flags flags;
  declare_common_flags(flags);
  flags.declare("p", "processor count", "16");
  flags.parse(argc, argv);
  BenchEnv env = env_from_flags(flags);
  const std::size_t p = flags.u64("p");
  const std::vector<double> disorder{0.0, 0.01, 0.1, 0.5, 1.0};

  print_header("Ablation: partially sorted input (TimSort adaptivity)",
               "expectation: Spark's gap narrows as the data gets more sorted",
               env);

  Table t({"disorder", "pgxd (s)", "spark (s)", "spark/pgxd"});
  for (double d : disorder) {
    std::vector<std::vector<Key>> shards;
    for (std::size_t r = 0; r < p; ++r)
      shards.push_back(gen::almost_sorted_shard(env.n, 1ull << 40, d,
                                                env.seed, p, r));
    const auto pg = run_pgxd(env, p, shards);
    const auto sp = run_spark(env, p, shards);
    t.row({Table::fmt_pct(d, 0), seconds(pg.stats.total_time),
           seconds(sp.total_time),
           Table::fmt(static_cast<double>(sp.total_time) /
                          static_cast<double>(pg.stats.total_time),
                      2) +
               "x"});
  }
  emit(t, flags);
  std::printf("\n'disorder' is the fraction of positions swapped at random in "
              "an ascending ramp.\n");
  return 0;
}
